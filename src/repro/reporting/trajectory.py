"""Cross-run regression checker over the ``BENCH_*.json`` history.

The perf scenarios (``python -m repro.bench perf NAME``) commit their
measured artifacts (``BENCH_trace.json``, ``BENCH_analytic.json``, ...)
at the repo root, so every commit carries the last known-good numbers.  This module compares a freshly produced
artifact against its committed baseline and flags any recorded metric
drifting beyond a threshold (20% by default) — the trajectory of the
repo's own performance becomes a gated observable.

Wall-clock timings are machine-dependent, so callers exclude them with
ignore globs; the derived ratios (speedups, errors, counts) are the
stable trajectory.  A top-level ``host`` record describes where a run
happened rather than what it measured, so it is never compared.  CLI::

    python -m repro.reporting.trajectory BENCH_analytic.json \\
        --baseline baseline_dir --threshold 0.2 \\
        --ignore '*_s' --ignore '*trace_s*'

Exit status 1 when any compared metric drifts past the threshold.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Default drift gate: >20% movement from the committed value fails.
DEFAULT_THRESHOLD = 0.20


def flatten_metrics(payload: object, prefix: str = "") -> Dict[str, float]:
    """Flatten nested dicts/lists to dotted-key -> float leaves.

    Booleans flatten to 0.0/1.0 (a flipped invariant is a drift of
    100%); strings and nulls are skipped — only numbers trend.
    """
    flat: Dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            dotted = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten_metrics(value, dotted))
    elif isinstance(payload, (list, tuple)):
        for i, value in enumerate(payload):
            flat.update(flatten_metrics(value, f"{prefix}[{i}]"))
    elif isinstance(payload, bool):
        flat[prefix] = 1.0 if payload else 0.0
    elif isinstance(payload, (int, float)):
        flat[prefix] = float(payload)
    return flat


@dataclass(frozen=True)
class Drift:
    """One metric's movement between baseline and current run."""

    metric: str
    baseline: float
    current: float

    @property
    def rel_change(self) -> float:
        if self.baseline == 0.0:
            return 0.0 if self.current == 0.0 else float("inf")
        return abs(self.current - self.baseline) / abs(self.baseline)

    def line(self, threshold: float) -> str:
        status = "DRIFT" if self.rel_change > threshold else "ok   "
        change = (
            f"{self.rel_change:8.1%}" if self.rel_change != float("inf") else "     inf"
        )
        return (
            f"{status} {self.metric:60s} "
            f"{self.baseline:14.6g} -> {self.current:14.6g}  {change}"
        )


def _selected(metric: str, include: Sequence[str], ignore: Sequence[str]) -> bool:
    if include and not any(fnmatch(metric, pat) for pat in include):
        return False
    return not any(fnmatch(metric, pat) for pat in ignore)


def _measured(payload: dict) -> dict:
    """``payload`` without its descriptive top-level ``host`` record."""
    return {key: value for key, value in payload.items() if key != "host"}


def compare_payloads(
    baseline: dict,
    current: dict,
    include: Sequence[str] = (),
    ignore: Sequence[str] = (),
) -> List[Drift]:
    """Drifts for every metric present in both payloads."""
    base_flat = flatten_metrics(_measured(baseline))
    cur_flat = flatten_metrics(_measured(current))
    return [
        Drift(metric, base_flat[metric], cur_flat[metric])
        for metric in sorted(base_flat.keys() & cur_flat.keys())
        if _selected(metric, include, ignore)
    ]


def check_trajectory(
    new_paths: Iterable[Path],
    baseline_dir: Path,
    threshold: float = DEFAULT_THRESHOLD,
    include: Sequence[str] = (),
    ignore: Sequence[str] = (),
) -> tuple[bool, List[str]]:
    """Compare each new artifact to its same-named committed baseline.

    Returns ``(ok, report lines)``.  A new artifact without a baseline
    is reported but does not fail — first commits seed the history.
    """
    ok = True
    lines: List[str] = []
    for new_path in new_paths:
        base_path = baseline_dir / new_path.name
        if not base_path.exists():
            lines.append(f"seed  {new_path.name}: no baseline in {baseline_dir}")
            continue
        baseline = json.loads(base_path.read_text(encoding="utf-8"))
        current = json.loads(new_path.read_text(encoding="utf-8"))
        drifts = compare_payloads(baseline, current, include, ignore)
        drifted = [d for d in drifts if d.rel_change > threshold]
        lines.append(
            f"----- {new_path.name}: {len(drifts)} metrics compared, "
            f"{len(drifted)} beyond {threshold:.0%}"
        )
        lines.extend(d.line(threshold) for d in drifts if d.rel_change > threshold)
        if drifted:
            ok = False
    return ok, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.reporting.trajectory",
        description="Flag BENCH_*.json metrics drifting from their committed values.",
    )
    parser.add_argument("artifacts", nargs="+", type=Path,
                        help="freshly produced BENCH_*.json files")
    parser.add_argument("--baseline", type=Path, required=True, metavar="DIR",
                        help="directory holding the committed baselines "
                             "(same file names)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="relative drift that fails the check "
                             "(default: 0.2 = 20%%)")
    parser.add_argument("--include", action="append", default=[], metavar="GLOB",
                        help="only compare metrics matching this glob "
                             "(repeatable; default: all)")
    parser.add_argument("--ignore", action="append", default=[], metavar="GLOB",
                        help="skip metrics matching this glob (repeatable), "
                             "e.g. '*_s' for wall-clock seconds")
    args = parser.parse_args(argv)
    if args.threshold <= 0:
        parser.error("--threshold must be positive")
    missing = [p for p in args.artifacts if not p.exists()]
    if missing:
        parser.error(f"artifact(s) not found: {[str(p) for p in missing]}")

    ok, lines = check_trajectory(
        args.artifacts, args.baseline, args.threshold, args.include, args.ignore
    )
    print("\n".join(lines))
    print("Trajectory " + ("OK" if ok else "DRIFTED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
