"""Sharded-execution micro-benchmark (``python -m repro.bench perf parallel``).

Times a long lmbench-style pointer-chase trace three ways:

1. **serial engine** — the plain unsharded
   :class:`~repro.mem.batch.BatchMemoryHierarchy`, one engine walking
   the whole working set;
2. **sharded plan, workers=1** — the same trace line-interleaved over
   shards, run in-process (the conformance suite's serial oracle);
3. **sharded plan, workers=N** — the identical plan over the
   multiprocess :class:`~repro.parallel.ShardPool`, pool start-up
   included.

The working set is chosen to *exceed* the modelled L1 (so the serial
engine runs its scalar fallback on every chunk) while each shard's
hashed slice of it is L1-resident (so shard engines commit chunks on
the vectorized bulk path) — the shard-locality effect the speedup
figure in ``BENCH_parallel.json`` records.  Runs 2 and 3 must agree
bit-for-bit (latencies, level codes, merged PMU banks); the benchmark
reports ``bit_identical`` and ``perf parallel`` exits non-zero when it
does not hold.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict

import numpy as np

from ..arch import e870
from ..mem.batch import BatchMemoryHierarchy
from ..mem.trace import random_chase_addresses
from ..parallel import run_trace_sharded

#: 2x the modelled 64 KiB L1: the unsharded engine misses every set,
#: while each of the 8 default shards' ~128-line slice sits L1-resident.
DEFAULT_WORKING_SET = 128 << 10
DEFAULT_ACCESSES = 2_000_000
DEFAULT_SHARDS = 8
DEFAULT_WORKERS = 4


def run_parallel_bench(
    working_set: int = DEFAULT_WORKING_SET,
    n_accesses: int = DEFAULT_ACCESSES,
    shards: int = DEFAULT_SHARDS,
    workers: int = DEFAULT_WORKERS,
    seed: int = 0,
) -> Dict:
    """Time serial engine vs sharded plan vs multiprocess pool."""
    system = e870()
    chip = system.chip
    line = chip.core.l1d.line_size
    passes = max(1, n_accesses // max(1, working_set // line))
    addrs = random_chase_addresses(working_set, line, passes=passes, seed=seed)

    # The pool run goes first: it forks the benchmark process, and
    # forking before the parent holds the other runs' result arrays
    # keeps copy-on-write faults out of the measured window.  Ordering
    # cannot affect results — every run is deterministic in (config,
    # seed, shard count).
    start = time.perf_counter()
    pooled = run_trace_sharded(chip, addrs, shards=shards, workers=workers, seed=seed)
    parallel_s = time.perf_counter() - start
    gc.collect()

    start = time.perf_counter()
    oracle = run_trace_sharded(chip, addrs, shards=shards, workers=1, seed=seed)
    plan_serial_s = time.perf_counter() - start
    gc.collect()

    start = time.perf_counter()
    hier = BatchMemoryHierarchy(chip)
    serial_trace = hier.access_trace(addrs)
    serial_s = time.perf_counter() - start

    bit_identical = (
        np.array_equal(oracle.trace.latency_ns, pooled.trace.latency_ns)
        and np.array_equal(oracle.trace.level_codes, pooled.trace.level_codes)
        and np.array_equal(
            oracle.trace.translation_cycles, pooled.trace.translation_cycles
        )
        and dict(oracle.bank) == dict(pooled.bank)
        and oracle.stats == pooled.stats
    )

    return {
        "benchmark": "parallel-shard-pointer-chase",
        "working_set_bytes": int(working_set),
        "accesses": int(addrs.size),
        "shards": int(shards),
        "workers": int(workers),
        "cpu_count": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1),
        "seed": int(seed),
        "serial_s": serial_s,
        "plan_serial_s": plan_serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s else float("inf"),
        "plan_speedup": serial_s / plan_serial_s if plan_serial_s else float("inf"),
        "bit_identical": bool(bit_identical),
        "serial_mean_latency_ns": float(serial_trace.mean_latency_ns),
        "sharded_mean_latency_ns": float(pooled.mean_latency_ns),
        "serial_l1_hit_fraction": float(
            hier.stats.level_hits["L1"] / hier.stats.accesses
        ),
        "sharded_l1_hit_fraction": float(
            pooled.stats.level_hits["L1"] / pooled.stats.accesses
        ),
        "note": (
            "speedup = serial_s / parallel_s; the sharded plan changes the "
            "simulated cache partitioning, so sharded latencies are compared "
            "against the workers=1 oracle (bit_identical), not the unsharded "
            "engine"
        ),
    }
