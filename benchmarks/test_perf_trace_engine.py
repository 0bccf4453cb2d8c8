"""Bench: batched trace engine vs per-access reference simulator.

The acceptance bar for the vectorized engine is a >=10x throughput win
on a 1M-access pointer chase over a 32 KB working set (the L1-resident
lmbench plateau).  The measured result is written to
``BENCH_trace.json`` at the repo root — the same artifact
``python -m repro.bench perf trace`` produces.
"""

from pathlib import Path

from repro.bench.perf import write_bench
from repro.bench.trace_perf import run_trace_bench

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_trace.json"


def test_trace_engine_speedup(benchmark, system):
    result = benchmark.pedantic(
        run_trace_bench,
        kwargs={"system": system, "repeats": 1},
        rounds=1,
        iterations=1,
    )
    write_bench(str(BENCH_JSON), result=result)
    # Engines must agree exactly on the simulated latency...
    assert result["simulated_mean_latency_ns"] > 0
    # ...and the batch engine must clear the 10x acceptance bar.
    assert result["speedup"] >= 10.0, (
        f"batch engine only {result['speedup']:.1f}x faster "
        f"({result['batch_ns_per_access']:.0f} ns/access vs "
        f"{result['reference_ns_per_access']:.0f})"
    )


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
