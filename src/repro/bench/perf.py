"""The perf scenarios behind one entry point: ``python -m repro.bench perf NAME``.

Each scenario in :data:`SCENARIOS` names four things: the ``run_*``
function that measures it, the summary lines it prints, the named
checks that gate it, and the ``BENCH_*.json`` artifact it writes
(``--out`` overrides the path)::

    python -m repro.bench perf trace            # -> BENCH_trace.json
    python -m repro.bench perf stream-fastpath  # -> BENCH_stream_fastpath.json
    python -m repro.bench perf analytic         # -> BENCH_analytic.json
    python -m repro.bench perf parallel         # -> BENCH_parallel.json
    python -m repro.bench perf chaos            # -> BENCH_chaos.json
    python -m repro.bench perf compare          # -> BENCH_compare.json

This is the one place a scenario is run and gated: a failed check is
printed by name and the command exits 1.  What every scenario records
goes through one place each: :func:`time_repeats` times repeated
samples and keeps their min (the best-of that speedups and floors
read), median and IQR, and :func:`write_bench` writes every artifact
with the host it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


# -- recording ---------------------------------------------------------------


@dataclass(frozen=True)
class Timing:
    """Spread of repeated wall-clock samples (seconds per call).

    ``value`` is what the last call returned.  Engines that carry state
    from one sample to the next are cross-checked on the same sample
    that way, whichever sample happened to be fastest.
    """

    min_s: float
    median_s: float
    iqr_s: float
    value: Any = None

    @classmethod
    def of(cls, samples: Sequence[float], value: Any = None) -> "Timing":
        q1, median, q3 = np.percentile(samples, [25, 50, 75])
        return cls(float(min(samples)), float(median), float(q3 - q1), value)

    def record(self, name: str) -> Dict[str, float]:
        """``name_s`` (the best-of) plus ``name_median_s`` and ``name_iqr_s``."""
        return {
            f"{name}_s": self.min_s,
            f"{name}_median_s": self.median_s,
            f"{name}_iqr_s": self.iqr_s,
        }


def time_repeats(
    fn: Callable[..., Any],
    repeats: int,
    *,
    number: int = 1,
    setup: Optional[Callable[[], Any]] = None,
) -> Timing:
    """Time ``repeats`` samples of ``fn``.

    Each sample is the mean over ``number`` back-to-back calls.  When
    ``setup`` is given it runs untimed before every sample and its
    return value is passed to ``fn``.
    """
    samples: List[float] = []
    for _ in range(repeats):
        args = (setup(),) if setup is not None else ()
        start = perf_counter()
        for _ in range(number):
            value = fn(*args)
        samples.append((perf_counter() - start) / number)
    return Timing.of(samples, value)


def host_record() -> Dict[str, Any]:
    """Where the numbers were taken: CPU model, nproc, affinity, Python, NumPy."""
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    affinity = (
        sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    )
    return {
        "cpu_model": model,
        "nproc": os.cpu_count() or 1,
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def write_bench(path: str, result: Dict[str, Any]) -> Dict[str, Any]:
    """Write ``result`` and a ``host`` record as indent-2, key-sorted JSON.

    Returns the dict written.  ``repro.reporting.trajectory`` skips the
    ``host`` key, so artifacts from different machines still compare.
    """
    payload = {**result, "host": host_record()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


# -- summaries ---------------------------------------------------------------


def _trace_lines(result: Dict) -> List[str]:
    return [
        f"reference: {result['reference_ns_per_access']:8.1f} ns/access",
        f"batch:     {result['batch_ns_per_access']:8.1f} ns/access",
        f"speedup:   {result['speedup']:8.1f}x",
    ]


def _stream_fastpath_lines(result: Dict) -> List[str]:
    return [
        f"{name:>14}: scalar {lane['scalar_ns_per_access']:8.1f} ns/access"
        f"  fast {lane['fast_ns_per_access']:8.1f} ns/access"
        f"  speedup {lane['speedup']:6.2f}x"
        for name, lane in result["lanes"].items()
    ]


def _analytic_lines(result: Dict) -> List[str]:
    return [
        *(
            f"{name:>9}: trace {lane['trace_s']:7.3f} s"
            f"  oracle {1e6 * lane['oracle_s']:8.2f} us"
            f"  speedup {lane['speedup']:10.0f}x"
            f"  max_rel_err {lane['max_rel_err']:.3e}"
            f"  {'ok' if lane['within_tolerance'] else 'OUT OF TOLERANCE'}"
            for name, lane in result["lanes"].items()
        ),
        f"min speedup {result['min_speedup']:.0f}x, "
        f"max rel err {result['max_rel_err']:.3e}",
    ]


def _parallel_lines(result: Dict) -> List[str]:
    return [
        f"serial engine:  {result['serial_s']:8.2f} s",
        f"sharded plan:   {result['plan_serial_s']:8.2f} s (workers=1)",
        f"sharded pool:   {result['parallel_s']:8.2f} s (workers={result['workers']})",
        f"speedup:        {result['speedup']:8.2f}x (vs serial engine)",
        f"bit-identical:  {result['bit_identical']}",
    ]


def _chaos_lines(result: Dict) -> List[str]:
    mixed = result["mixed_fault"]
    return [
        f"mixed faults:  {mixed['requests']} requests, "
        f"availability {mixed['availability']:.4f}, "
        f"violations {mixed['violations']}, "
        f"p50 {mixed['p50_ms']:.3f} ms, p99 {mixed['p99_ms']:.3f} ms",
        f"  injected:    {mixed['malformed_sent']} malformed, "
        f"{mixed['oversized_sent']} oversized, "
        f"{mixed['disconnects_injected']} client disconnects; "
        f"server drops {mixed['dropped']}, timeouts {mixed['timeouts']}",
    ]


def _compare_lines(result: Dict) -> List[str]:
    return [f"{len(result['machines'])} machines: {', '.join(result['machines'])}"]


# -- the checks --------------------------------------------------------------

#: A named pass check on a scenario's result.
Check = Tuple[str, Callable[[Dict], Any]]


def _lanes(names: Iterable[str], label: str, test: Callable[[Dict], Any]) -> List[Check]:
    """``test`` on each named lane of ``result["lanes"]``, as ``<lane>.<label>``."""
    return [
        (f"{name}.{label}", lambda r, name=name: test(r["lanes"][name]))
        for name in names
    ]


ANALYTIC_LANES = ("lat_mem", "stream", "prefetch")

#: Fast-path speedup floors per lane; prefetch is the headline bar.
STREAM_FASTPATH_FLOORS = {
    "prefetch": 5.0,
    "stream_read": 2.5,
    "stream_write": 2.5,
    "resident_write": 4.0,
}

TRACE_CHECKS: List[Check] = [
    ("simulated_mean_latency_ns > 0", lambda r: r["simulated_mean_latency_ns"] > 0),
    ("speedup >= 10", lambda r: r["speedup"] >= 10.0),
]

STREAM_FASTPATH_CHECKS: List[Check] = [
    ("lanes == prefetch, stream_read, stream_write, resident_write",
     lambda r: set(r["lanes"]) == set(STREAM_FASTPATH_FLOORS)),
    *_lanes(STREAM_FASTPATH_FLOORS, "simulated_mean_latency_ns > 0",
            lambda lane: lane["simulated_mean_latency_ns"] > 0),
    *(
        (f"{name}.speedup >= {floor}",
         lambda r, name=name, floor=floor: r["lanes"][name]["speedup"] >= floor)
        for name, floor in STREAM_FASTPATH_FLOORS.items()
    ),
]

ANALYTIC_CHECKS: List[Check] = [
    ("lanes == lat_mem, stream, prefetch",
     lambda r: set(r["lanes"]) == set(ANALYTIC_LANES)),
    *_lanes(ANALYTIC_LANES, "speedup >= 1000", lambda lane: lane["speedup"] >= 1000.0),
    *_lanes(ANALYTIC_LANES, "within_tolerance", lambda lane: lane["within_tolerance"]),
    ("prefetch.counters_exact", lambda r: r["lanes"]["prefetch"]["counters_exact"]),
    ("stream.max_rel_err < 1e-9", lambda r: r["lanes"]["stream"]["max_rel_err"] < 1e-9),
    ("all_within_tolerance", lambda r: r["all_within_tolerance"]),
]

PARALLEL_CHECKS: List[Check] = [
    ("bit_identical", lambda r: r["bit_identical"]),
    ("sharded_l1_hit_fraction > serial_l1_hit_fraction",
     lambda r: r["sharded_l1_hit_fraction"] > r["serial_l1_hit_fraction"]),
    ("speedup >= 2.0", lambda r: r["speedup"] >= 2.0),
]

CHAOS_CHECKS: List[Check] = [
    ("mixed_fault.violations == 0", lambda r: r["mixed_fault"]["violations"] == 0),
    ("mixed_fault.availability >= 0.99",
     lambda r: r["mixed_fault"]["availability"] >= 0.99),
    ("mixed_fault.server_chaos_counts non-empty",
     lambda r: r["mixed_fault"]["server_chaos_counts"]),
]


def failed_checks(checks: Sequence[Check], result: Dict) -> List[str]:
    """Names of the ``checks`` that ``result`` fails; a check whose
    fields are missing fails too."""
    failed = []
    for name, check in checks:
        try:
            ok = bool(check(result))
        except (KeyError, TypeError):
            ok = False
        if not ok:
            failed.append(name)
    return failed


# -- the scenario table ------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One perf scenario: measure, summarize, gate, and where it is written."""

    run: Callable[[], Dict]
    summary: Callable[[Dict], List[str]]
    checks: Sequence[Check]
    artifact: str


def _lazy(module: str, func: str) -> Callable[[], Dict]:
    """``module.func`` with its defaults, imported on first call so each
    scenario loads only what it runs."""
    return lambda: getattr(import_module(module, __package__), func)()


SCENARIOS: Dict[str, Scenario] = {
    "trace": Scenario(
        _lazy(".trace_perf", "run_trace_bench"),
        _trace_lines, TRACE_CHECKS, "BENCH_trace.json",
    ),
    "stream-fastpath": Scenario(
        _lazy(".stream_fastpath_perf", "run_stream_fastpath_bench"),
        _stream_fastpath_lines, STREAM_FASTPATH_CHECKS,
        "BENCH_stream_fastpath.json",
    ),
    "analytic": Scenario(
        _lazy(".analytic_perf", "run_analytic_bench"),
        _analytic_lines, ANALYTIC_CHECKS, "BENCH_analytic.json",
    ),
    "parallel": Scenario(
        _lazy(".parallel_perf", "run_parallel_bench"),
        _parallel_lines, PARALLEL_CHECKS, "BENCH_parallel.json",
    ),
    "chaos": Scenario(
        _lazy("..serve.loadgen", "run_chaos_bench"),
        _chaos_lines, CHAOS_CHECKS, "BENCH_chaos.json",
    ),
    "compare": Scenario(
        _lazy(".compare", "run_compare_bench"),
        _compare_lines, (), "BENCH_compare.json",
    ),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench perf",
        description="Run one perf scenario, print its summary and write its "
                    "BENCH_*.json artifact; exits 1, naming each failed check.",
    )
    parser.add_argument("name", choices=list(SCENARIOS), help="scenario to run")
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="output JSON (default: the scenario's BENCH_*.json in the "
             "current directory)",
    )
    args = parser.parse_args(argv)
    scenario = SCENARIOS[args.name]
    out = args.out if args.out is not None else scenario.artifact
    result = scenario.run()
    write_bench(out, result)
    print("\n".join(scenario.summary(result)))
    print(f"[wrote {out}]")
    failed = failed_checks(scenario.checks, result)
    for name in failed:
        print(f"FAILED {args.name}: {name}")
    return 1 if failed else 0
