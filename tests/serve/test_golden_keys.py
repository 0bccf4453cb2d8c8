"""Every pinned cache key is unchanged (``golden_keys.json``).

Cache keys address the daemon's LRU, the on-disk result cache and the
in-flight dedup table.  A change to the key material that is not a
deliberate ``CACHE_VERSION`` bump would silently orphan every existing
disk entry, so any moved key fails here.
"""

import json

import pytest

from tests.serve.regen_golden_keys import (
    GOLDEN_KEYS_PATH,
    MACHINES,
    bench_cli_key,
    request_key,
    specs,
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_KEYS_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_machine_and_spec(golden):
    labels = {label for label, _ in specs()}
    assert set(golden["keys"]) == set(MACHINES)
    for section in golden["keys"].values():
        assert set(section) == labels


@pytest.mark.parametrize("machine", MACHINES)
def test_request_keys_match_golden(golden, machine):
    moved = [
        label
        for label, spec in specs()
        if request_key(machine, spec) != golden["keys"][machine][label]
    ]
    assert not moved, f"{machine}: cache keys moved for {moved}"


def test_bench_cli_key_matches_golden(golden):
    assert bench_cli_key() == golden["bench_cli"]["table1"]
