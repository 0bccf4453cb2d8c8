"""Run the benchmark several times and report each metric's spread.

Usage (from the repository root)::

    python3 servebench/aa.py --workloads hot-hits oracle-miss \\
        --runs 10 [--seconds S] [--first-seed 1] [--out results.json]

Each run gets its own seed.  For every end-to-end metric the script
prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median next to the metric's bound from
``BENCHMARK.json``.  ``--compare OLD.json`` also prints how far this
set's median moved from an earlier set's, the A/A check: two sets of
runs of the same code must agree within the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from helpers import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    host = json.loads(next(l for l in lines if l.startswith("host "))[len("host "):])
    values["host.probe_ms"] = statistics.median(host["host.probe_ms"])
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the raw values here as JSON")
    parser.add_argument("--compare", help="raw values of an earlier set")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    old = json.loads(Path(args.compare).read_text()) if args.compare else {}
    raw = {}
    for workload in args.workloads:
        runs = []
        for k in range(args.runs):
            runs.append(run_once(workload, args.first_seed + k, seconds))
            print(f"{workload} seed {args.first_seed + k}: "
                  + ", ".join(f"{n}={v:.5g}" for n, v in runs[-1].items()), flush=True)
        raw[workload] = runs
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3, spread = quartile_spread(values)
            line = (f"{workload:12s} {name:11s} median {med:.5g} q1 {q1:.5g} "
                    f"q3 {q3:.5g} spread {spread:.4f} (bound {bound}, "
                    f"{'ok' if name == 'setup_s' or spread <= bound / 3 else 'WIDE'})")
            if workload in old:
                _, old_med, _, _ = quartile_spread([r[name] for r in old[workload]])
                line += f" moved {(med - old_med) / old_med:+.4f} from {old_med:.5g}"
            print(line, flush=True)
        probes = [r["host.probe_ms"] for r in runs]
        print(f"{workload:12s} host.probe_ms median {statistics.median(probes):.3f} "
              f"range {min(probes):.3f}-{max(probes):.3f} (host speed; not a metric)",
              flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
