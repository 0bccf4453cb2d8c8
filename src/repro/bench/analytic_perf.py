"""Analytic-oracle micro-benchmark: O(1) predictions vs trace replay.

Times the :class:`~repro.perfmodel.oracle.AnalyticOracle` against the
trace-driven batch engine on the three prediction families the
acceptance criteria name, each lane answering the identical question
both ways:

* ``lat_mem`` — random pointer-chase latency at the cache-plateau
  working sets (Figure 2 points);
* ``stream`` — the cold sequential sweep with prefetching off and at
  the deepest DSCR setting (the ``tools/stream --trace`` regimes);
* ``prefetch`` — the full traced DSCR depth sweep (Figure 6), latency
  plus the PMU prefetch counters at every setting.

The oracle side is timed over many repetitions (a single prediction is
microseconds); each lane reports the speedup for equal prediction sets
and the max relative error against the trace ground truth, checked
against the golden differential tolerances.  ``python -m repro.bench
perf analytic`` runs it and writes ``BENCH_analytic.json``;
``benchmarks/test_perf_analytic.py`` asserts the >=1000x acceptance bar
from the same entry point.
"""

from __future__ import annotations

import time
from typing import Optional

from ..arch.power8 import PAGE_64K
from ..arch.specs import SystemSpec
from ..perfmodel.differential import (
    CHASE_POINTS,
    load_golden_tolerances,
)
from ..perfmodel.oracle import AnalyticOracle
from .perf import time_repeats

#: Shapes of the trace workloads each lane replays.
STREAM_SWEEP_BYTES = 4 << 20
STREAM_DEPTHS = (0, 7)
PREFETCH_SWEEP_LINES = 4096

#: Repetitions used to time the microsecond-scale oracle side: each of
#: ``ORACLE_ROUNDS`` samples is the mean of ``ORACLE_REPS`` calls.
ORACLE_REPS = 200
ORACLE_ROUNDS = 3


def _rel_err(truth: float, predicted: float) -> float:
    return abs(truth - predicted) / max(abs(truth), 1e-30)


def _lat_mem_lane(system: SystemSpec, oracle: AnalyticOracle) -> dict:
    from .latency import traced_latency_ns

    points = {name: ws for name, ws in CHASE_POINTS.items() if ws <= 4 << 20}
    start = time.perf_counter()
    traced = {name: traced_latency_ns(system, ws, passes=3) for name, ws in points.items()}
    trace_s = time.perf_counter() - start

    sizes = list(points.values())

    def predict():
        return [oracle.chase_latency_ns(ws) for ws in sizes]

    timing = time_repeats(predict, ORACLE_ROUNDS, number=ORACLE_REPS)
    errors = {
        name: _rel_err(traced[name], oracle.chase_latency_ns(ws))
        for name, ws in points.items()
    }
    return {
        "points": {name: int(ws) for name, ws in points.items()},
        "trace_s": trace_s,
        **timing.record("oracle"),
        "speedup": trace_s / timing.min_s,
        "rel_errors": errors,
        "max_rel_err": max(errors.values()),
    }


def _stream_lane(system: SystemSpec, oracle: AnalyticOracle) -> dict:
    from .latency import traced_stream_latency_ns

    start = time.perf_counter()
    traced = {
        depth: traced_stream_latency_ns(system, STREAM_SWEEP_BYTES, depth=depth)
        for depth in STREAM_DEPTHS
    }
    trace_s = time.perf_counter() - start

    def predict():
        return [
            oracle.stream_sweep(STREAM_SWEEP_BYTES, depth=depth)
            for depth in STREAM_DEPTHS
        ]

    timing = time_repeats(predict, ORACLE_ROUNDS, number=ORACLE_REPS)
    errors = {
        str(depth): _rel_err(
            traced[depth],
            oracle.stream_sweep(STREAM_SWEEP_BYTES, depth=depth).mean_latency_ns,
        )
        for depth in STREAM_DEPTHS
    }
    return {
        "sweep_bytes": STREAM_SWEEP_BYTES,
        "depths": list(STREAM_DEPTHS),
        "trace_s": trace_s,
        **timing.record("oracle"),
        "speedup": trace_s / timing.min_s,
        "rel_errors": errors,
        "max_rel_err": max(errors.values()),
    }


def _prefetch_lane(system: SystemSpec, oracle: AnalyticOracle) -> dict:
    from ..prefetch.traced import traced_dscr_sweep

    start = time.perf_counter()
    traced = traced_dscr_sweep(system.chip, n_lines=PREFETCH_SWEEP_LINES)
    trace_s = time.perf_counter() - start

    def predict():
        return oracle.prefetch_depth_sweep(n_lines=PREFETCH_SWEEP_LINES)

    timing = time_repeats(predict, ORACLE_ROUNDS, number=ORACLE_REPS)
    predicted = predict()
    worst = 0.0
    counters_exact = True
    for t, p in zip(traced, predicted):
        worst = max(worst, _rel_err(t["mean_latency_ns"], p.mean_latency_ns))
        counters_exact &= (
            int(t["dram_misses"]) == p.dram_misses
            and int(t["prefetch_issued"]) == p.prefetch_issued
            and int(t["prefetch_useful"]) == p.prefetch_useful
        )
    return {
        "n_lines": PREFETCH_SWEEP_LINES,
        "depths": [t["depth"] for t in traced],
        "trace_s": trace_s,
        **timing.record("oracle"),
        "speedup": trace_s / timing.min_s,
        "max_rel_err": worst,
        "counters_exact": counters_exact,
    }


def run_analytic_bench(system: Optional[SystemSpec] = None) -> dict:
    """Time all three lanes; each simulates once and predicts many times."""
    if system is None:
        from ..arch import e870

        system = e870()
    oracle = AnalyticOracle(system)
    golden = load_golden_tolerances()
    lanes = {
        "lat_mem": _lat_mem_lane(system, oracle),
        "stream": _stream_lane(system, oracle),
        "prefetch": _prefetch_lane(system, oracle),
    }
    # Each lane is gated by the loosest golden tolerance of the
    # differential cases it replays.
    lanes["lat_mem"]["tolerance"] = max(
        golden[name] for name in CHASE_POINTS if CHASE_POINTS[name] <= 4 << 20
    )
    lanes["stream"]["tolerance"] = max(
        golden["stream_cold_depth0"], golden["stream_cold_depth7"]
    )
    lanes["prefetch"]["tolerance"] = golden["prefetch_sweep"]
    for lane in lanes.values():
        lane["within_tolerance"] = lane["max_rel_err"] <= lane["tolerance"]
    return {
        "benchmark": "analytic_oracle",
        "page_size": PAGE_64K,
        "oracle_reps": ORACLE_REPS,
        "lanes": lanes,
        "min_speedup": min(lane["speedup"] for lane in lanes.values()),
        "max_rel_err": max(lane["max_rel_err"] for lane in lanes.values()),
        "all_within_tolerance": all(lane["within_tolerance"] for lane in lanes.values()),
    }
