"""Bench: the analytic oracle vs the trace engine (the >=1000x gate).

The acceptance bar for the oracle is a >=1000x wall-clock win over the
trace-driven batch engine on every prediction lane — lat_mem chase
points, cold STREAM sweeps, and the full traced DSCR depth sweep —
with every prediction inside its golden differential tolerance.  The
measured numbers are written to ``BENCH_analytic.json`` at the repo
root — the same artifact ``python -m repro.bench perf analytic``
produces.
"""

from pathlib import Path

from repro.bench.analytic_perf import run_analytic_bench
from repro.bench.perf import write_bench

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_analytic.json"

#: The ISSUE's acceptance criterion; measured speedups run 4-5 orders
#: of magnitude (tens of thousands on the dev box).
SPEEDUP_FLOOR = 1000.0

LANES = ("lat_mem", "stream", "prefetch")


def test_analytic_oracle_speedups(benchmark, system):
    result = benchmark.pedantic(
        run_analytic_bench,
        kwargs={"system": system},
        rounds=1,
        iterations=1,
    )
    write_bench(str(BENCH_JSON), result=result)
    lanes = result["lanes"]
    assert set(lanes) == set(LANES)
    for name in LANES:
        lane = lanes[name]
        assert lane["speedup"] >= SPEEDUP_FLOOR, (
            f"{name}: oracle only {lane['speedup']:.0f}x over the trace "
            f"engine ({lane['trace_s']:.3f} s vs {1e6 * lane['oracle_s']:.1f} us), "
            f"floor {SPEEDUP_FLOOR:.0f}x"
        )
        assert lane["within_tolerance"], (
            f"{name}: max rel err {lane['max_rel_err']:.3e} exceeds the "
            f"golden tolerance {lane['tolerance']:.3e}"
        )
    # The deterministic lanes must reproduce the trace exactly, counters
    # included — an approximation creeping in is a regression even if it
    # stays under the chase-model tolerance.
    assert lanes["prefetch"]["counters_exact"]
    assert lanes["stream"]["max_rel_err"] < 1e-9
    assert result["all_within_tolerance"]
