"""Bench: batched trace engine vs per-access reference simulator, out of L1.

The headline bar (>=10x on a 1M-access chase over a 32 KB working set)
is gated by ``python -m repro.bench perf trace``, which also writes
``BENCH_trace.json``.  This file keeps the out-of-L1 case: a 2-MiB
chase that takes the scalar path must still beat the reference loop.
"""

from repro.bench.trace_perf import run_trace_bench


def test_trace_engine_large_working_set(benchmark, system):
    """Out-of-L1 working set still wins (scalar-path speedup, no fast path)."""
    result = benchmark.pedantic(
        run_trace_bench,
        kwargs={
            "system": system,
            "working_set": 2 << 20,
            "n_accesses": 100_000,
            "repeats": 1,
        },
        rounds=1,
        iterations=1,
    )
    assert result["speedup"] >= 1.5
