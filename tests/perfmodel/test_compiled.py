"""The compiled-model registry: shared per machine, private per custom
DRAM, bounded in size."""

import dataclasses

from repro.arch.registry import MACHINES, get_system
from repro.mem.dram import DRAMModel
from repro.perfmodel.compiled import (
    MAX_COMPILED_MODELS,
    compiled_model,
    compiled_registry_len,
)
from repro.perfmodel.oracle import AnalyticOracle


def test_alias_shares_one_entry():
    assert compiled_model("e870") is compiled_model("power8")
    assert compiled_model(get_system("power8")) is compiled_model("power8")


def test_custom_dram_gets_a_private_model():
    system = get_system("power8")
    dram = DRAMModel(num_banks=8, row_size=4096)
    oracle = AnalyticOracle(system, dram=dram)
    assert oracle.compiled is not compiled_model(system)
    assert oracle.dram is dram
    assert AnalyticOracle(system).dram is not dram


def test_registry_stays_bounded_over_the_zoo_twice():
    for name in list(MACHINES) * 2:
        compiled_model(name)
        assert compiled_registry_len() <= MAX_COMPILED_MODELS
    before = compiled_registry_len()
    for name in MACHINES:  # every zoo machine already has its entry
        compiled_model(name)
    assert compiled_registry_len() == before


def test_registry_evicts_past_its_bound():
    system = get_system("power8")
    for i in range(MAX_COMPILED_MODELS + 4):
        compiled_model(dataclasses.replace(system, name=f"registry-probe-{i}"))
        assert compiled_registry_len() <= MAX_COMPILED_MODELS
    assert compiled_registry_len() == MAX_COMPILED_MODELS
