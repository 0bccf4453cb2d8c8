"""Bench: sharded multiprocess trace execution vs the serial engine.

The acceptance bar for the sharded layer (``repro.parallel``) is a
>=2x wall-clock win on a 4-worker pointer chase whose working set
exceeds the modelled L1 — the serial engine falls off the vectorized
fast path while each shard's hashed slice stays L1-resident.  The
measured result is written to ``BENCH_parallel.json`` at the repo root
— the same artifact ``python -m repro.bench perf parallel`` produces.
The pooled run must also match the in-process oracle bit-for-bit.
"""

from pathlib import Path

from repro.bench.parallel_perf import run_parallel_bench
from repro.bench.perf import write_bench

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_parallel.json"


def test_parallel_shard_speedup(benchmark):
    result = benchmark.pedantic(
        run_parallel_bench,
        rounds=1,
        iterations=1,
    )
    write_bench(str(BENCH_JSON), result=result)
    # The pooled run and the workers=1 oracle must agree bit-for-bit...
    assert result["bit_identical"], "pooled run diverged from the serial oracle"
    # ...the shard plan must actually restore the L1-resident fast path...
    assert result["sharded_l1_hit_fraction"] > result["serial_l1_hit_fraction"]
    # ...and the sharded run must clear the 2x acceptance bar.
    assert result["speedup"] >= 2.0, (
        f"sharded run only {result['speedup']:.2f}x faster "
        f"({result['parallel_s']:.2f}s vs serial {result['serial_s']:.2f}s)"
    )
