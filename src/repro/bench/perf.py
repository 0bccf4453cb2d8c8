"""The perf scenarios behind one entry point: ``python -m repro.bench perf NAME``.

Each scenario in :data:`SCENARIOS` names four things: the ``run_*``
function that measures it, the summary lines it prints, the pass
predicate that sets the exit code, and the ``BENCH_*.json`` artifact
it writes (``--out`` overrides the path)::

    python -m repro.bench perf trace            # -> BENCH_trace.json
    python -m repro.bench perf stream-fastpath  # -> BENCH_stream_fastpath.json
    python -m repro.bench perf analytic         # -> BENCH_analytic.json
    python -m repro.bench perf parallel         # -> BENCH_parallel.json
    python -m repro.bench perf chaos            # -> BENCH_chaos.json
    python -m repro.bench perf compare          # -> BENCH_compare.json

What every scenario records goes through one place each:
:func:`time_repeats` times repeated samples and keeps their min (the
best-of that speedups and floors read), median and IQR, and
:func:`write_bench` writes every artifact with the host it ran on.
The ``benchmarks/test_perf_*.py`` gates write through the same writer.
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
from typing import Any, Callable, Dict, List, Optional, Sequence

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
    quarantine = result["quarantine"]
    overload = result["overload"]
    drain = result["drain"]
    return [
        f"mixed faults:  {mixed['requests']} requests, "
        f"availability {mixed['availability']:.4f}, "
        f"violations {mixed['violations']}, "
        f"p50 {mixed['p50_ms']:.3f} ms, p99 {mixed['p99_ms']:.3f} ms",
        f"  injected:    {mixed['malformed_sent']} malformed, "
        f"{mixed['oversized_sent']} oversized, "
        f"{mixed['disconnects_injected']} client disconnects; "
        f"server drops {mixed['dropped']}, timeouts {mixed['timeouts']}",
        f"quarantine:    corrupt entry -> "
        f"{'healed bit-identical' if quarantine['payload_identical'] else 'MISMATCH'} "
        f"({quarantine['quarantined']} file(s) quarantined, "
        f"healed via {quarantine['healed_source']})",
        f"overload:      {overload['total_shed']} shed "
        f"(busy {overload['busy']}, quota {overload['quota']}), "
        f"{overload['ok']} served",
        f"drain:         SIGTERM exit code {drain['exit_code']}, "
        f"banner {'present' if drain['drained_line_present'] else 'MISSING'}",
    ]


def _compare_lines(result: Dict) -> List[str]:
    return [f"{len(result['machines'])} machines: {', '.join(result['machines'])}"]


def _chaos_passed(result: Dict) -> bool:
    return (
        result["mixed_fault"]["violations"] == 0
        and result["quarantine"]["payload_identical"]
        and result["drain"]["exit_code"] == 0
    )


# -- the scenario table ------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One perf scenario: measure, summarize, gate, and where it is written."""

    run: Callable[[], Dict]
    summary: Callable[[Dict], List[str]]
    passed: Callable[[Dict], bool]
    artifact: str


def _lazy(module: str, func: str) -> Callable[[], Dict]:
    """``module.func`` with its defaults, imported on first call so each
    scenario loads only what it runs."""
    return lambda: getattr(import_module(module, __package__), func)()


def _always(result: Dict) -> bool:
    return True


SCENARIOS: Dict[str, Scenario] = {
    "trace": Scenario(
        _lazy(".trace_perf", "run_trace_bench"),
        _trace_lines, _always, "BENCH_trace.json",
    ),
    "stream-fastpath": Scenario(
        _lazy(".stream_fastpath_perf", "run_stream_fastpath_bench"),
        _stream_fastpath_lines, _always, "BENCH_stream_fastpath.json",
    ),
    "analytic": Scenario(
        _lazy(".analytic_perf", "run_analytic_bench"),
        _analytic_lines, lambda r: r["all_within_tolerance"], "BENCH_analytic.json",
    ),
    "parallel": Scenario(
        _lazy(".parallel_perf", "run_parallel_bench"),
        _parallel_lines, lambda r: r["bit_identical"], "BENCH_parallel.json",
    ),
    "chaos": Scenario(
        _lazy("..serve.loadgen", "run_chaos_bench"),
        _chaos_lines, _chaos_passed, "BENCH_chaos.json",
    ),
    "compare": Scenario(
        _lazy(".compare", "run_compare_bench"),
        _compare_lines, _always, "BENCH_compare.json",
    ),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench perf",
        description="Run one perf scenario, print its summary and write its "
                    "BENCH_*.json artifact; exits 1 when its pass check fails.",
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
    return 0 if scenario.passed(result) else 1
