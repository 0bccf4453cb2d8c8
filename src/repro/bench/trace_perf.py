"""Throughput micro-benchmark: batch trace engine vs per-access loop.

Times the same pointer-chase trace through the reference
:class:`~repro.mem.hierarchy.MemoryHierarchy` (one Python-level event
per access) and the vectorized
:class:`~repro.mem.batch.BatchMemoryHierarchy`, and reports the
speedup.  The headline configuration is a 1M-access chase over a 32 KB
working set — the L1-resident steady state of the lmbench plateau,
where the batch engine's all-hit fast path does the most work.

``python -m repro.bench perf trace`` runs it, writes the result JSON
(``BENCH_trace.json`` at the repo root by default) and exits 1 below
the >=10x acceptance bar.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..arch import e870
from ..arch.power8 import PAGE_64K
from ..arch.specs import SystemSpec
from ..mem.batch import BatchMemoryHierarchy
from ..mem.hierarchy import MemoryHierarchy
from ..mem.trace import random_chase_addresses
from .perf import time_repeats

#: Headline configuration (the acceptance-criteria point).
DEFAULT_WORKING_SET = 32 << 10
DEFAULT_ACCESSES = 1_000_000


def _chase_trace(working_set: int, line: int, n_accesses: int, seed: int) -> np.ndarray:
    """A pointer-chase permutation tiled out to ``n_accesses`` addresses."""
    perm = random_chase_addresses(working_set, line, passes=1, seed=seed)
    reps = -(-n_accesses // perm.size)  # ceil
    return np.tile(perm, reps)[:n_accesses]


def run_trace_bench(
    working_set: int = DEFAULT_WORKING_SET,
    n_accesses: int = DEFAULT_ACCESSES,
    page_size: int = PAGE_64K,
    repeats: int = 3,
    seed: int = 0,
    system: Optional[SystemSpec] = None,
    counters: bool = True,
) -> dict:
    """Time reference vs batch engine on one pointer-chase trace.

    Both engines run the identical warmed trace; the result records the
    per-access cost of each, the speedup, and the (identical) simulated
    mean latency as a cross-check.  ``counters`` toggles the engines'
    live PMU increments — ``benchmarks/test_perf_pmu_overhead.py`` runs
    both settings and bounds the difference.
    """
    spec = system if system is not None else e870()
    chip = spec.chip
    line = chip.core.l1d.line_size
    warm = random_chase_addresses(working_set, line, passes=1, seed=seed)
    trace = _chase_trace(working_set, line, n_accesses, seed)

    def timed(engine):
        hier = engine(chip, page_size=page_size, counters=counters)
        hier.warm(warm)
        return time_repeats(lambda: hier.access_trace(trace), repeats)

    ref, batch = timed(MemoryHierarchy), timed(BatchMemoryHierarchy)
    ref_latency = ref.value.mean_latency_ns
    batch_latency = batch.value.mean_latency_ns
    if ref_latency != batch_latency:
        raise AssertionError(
            f"engines disagree: reference {ref_latency} ns vs batch {batch_latency} ns"
        )
    return {
        "benchmark": "trace_engine_pointer_chase",
        "working_set_bytes": int(working_set),
        "accesses": int(n_accesses),
        "page_size": int(page_size),
        "repeats": int(repeats),
        "seed": int(seed),
        "counters": bool(counters),
        **ref.record("reference"),
        **batch.record("batch"),
        "reference_ns_per_access": 1e9 * ref.min_s / n_accesses,
        "batch_ns_per_access": 1e9 * batch.min_s / n_accesses,
        "speedup": ref.min_s / batch.min_s,
        "simulated_mean_latency_ns": batch_latency,
    }


def trace_bench_counter_report(
    working_set: int = DEFAULT_WORKING_SET,
    n_accesses: int = DEFAULT_ACCESSES,
    page_size: int = PAGE_64K,
    seed: int = 0,
) -> str:
    """PMU counter report for one (warmed) headline pointer-chase run."""
    from ..pmu import PMU

    chip = e870().chip
    line = chip.core.l1d.line_size
    hier = BatchMemoryHierarchy(chip, page_size=page_size)
    hier.warm(random_chase_addresses(working_set, line, passes=1, seed=seed))
    hier.access_trace(_chase_trace(working_set, line, n_accesses, seed))
    return PMU(hier).report(
        title=f"PMU counters ({working_set}-byte chase, {n_accesses} accesses)"
    )
