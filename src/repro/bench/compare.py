"""Cross-architecture comparison: the machine zoo side by side.

``python -m repro.bench --compare power8 sparc-t3-4 cascade-lake [...]``
characterizes each named machine through the same analytic models the
paper experiments use — latency plateaus, STREAM bandwidth, prefetch
sweep, random-access ceiling, performance and energy rooflines — and
renders one column per machine so the paper's comparative method reads
across architectures at a glance.  ``python -m repro.bench perf
compare`` writes the numbers to ``BENCH_compare.json`` for trajectory
gating.

Everything here is closed-form (no trace engines), so comparing the
whole zoo costs milliseconds; the trace-vs-oracle agreement that makes
the analytic numbers trustworthy is enforced separately by the
differential conformance suite (``--zoo-selftest`` runs its analytic
core plus the pinned golden headline tables).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.registry import available_machines, canonical_name, get_system
from ..arch.specs import SystemSpec
from ..perfmodel.oracle import AnalyticOracle
from ..perfmodel.stream_model import table3_rows
from ..prefetch.dscr import dscr_sweep
from ..roofline.energy import EnergyRoofline
from ..roofline.model import Roofline

GB = 1e9
KIB = 1024
MIB = 1024 * KIB

#: Default comparison set: the paper's machine plus the three ports.
DEFAULT_MACHINES = ("power8", "sparc-t3-4", "broadwell", "cascade-lake")


def characterize(name: str) -> Dict[str, object]:
    """One machine's headline numbers, all from the analytic models.

    The dict is flat (strings and floats only) so it drops straight
    into ``BENCH_compare.json`` and the trajectory gate.
    """
    machine = canonical_name(name)
    system = get_system(machine)
    chip = system.chip
    core = chip.core
    oracle = AnalyticOracle(system)
    page = chip.page_size

    # Latency plateaus at machine-relative working sets: the centre of
    # each cache level, then far past everything for the DRAM floor.
    lat = {
        "latency_l1_ns": oracle.latency_ns(max(core.l1d.capacity // 2, 1024), page),
        "latency_l2_ns": oracle.latency_ns(max(core.l2.capacity // 2, 2048), page),
        "latency_llc_ns": oracle.latency_ns(
            max(chip.l3_capacity // 2, core.l2.capacity // 2, 4096), page
        ),
        "latency_dram_ns": oracle.latency_ns(1 << 30, page),
    }

    rows = table3_rows(system)
    read_only = next(r["bandwidth"] for r in rows if r["write"] == 0)
    best = max(rows, key=lambda r: r["bandwidth"])
    sweep = dscr_sweep(system)
    shallow, deep = sweep[0], sweep[-1]
    roof = Roofline(system)
    energy = EnergyRoofline(system)
    random_peak = oracle.random_access.peak_bandwidth

    return {
        "machine": machine,
        "system": system.name,
        "chips": float(system.num_chips),
        "cores": float(system.num_cores),
        "smt_ways": float(core.smt_ways),
        "threads": float(system.num_cores * core.smt_ways),
        "frequency_ghz": chip.frequency_hz / 1e9,
        "line_bytes": float(core.l1d.line_size),
        "page_kib": page / KIB,
        "l1d_kib": core.l1d.capacity / KIB,
        "l2_kib": core.l2.capacity / KIB,
        "llc_mib_per_chip": chip.l3_capacity / MIB,
        "memside_cache_mib_per_chip": chip.l4_capacity / MIB,
        **lat,
        "stream_read_only_gbs": read_only / GB,
        "stream_optimal_gbs": best["bandwidth"] / GB,
        "optimal_read_write": f"{best['read']:g}:{best['write']:g}",
        "optimal_read_fraction": chip.centaur.optimal_read_fraction,
        "random_access_peak_gbs": random_peak / GB,
        "prefetch_latency_off_ns": shallow.latency_ns,
        "prefetch_latency_deep_ns": deep.latency_ns,
        "prefetch_deep_distance_lines": float(deep.distance_lines),
        "peak_gflops": system.peak_gflops,
        "peak_memory_bandwidth_gbs": system.peak_memory_bandwidth / GB,
        "ridge_oi_flops_per_byte": roof.balance,
        "write_roof_gbs": roof.write_only_bandwidth / GB,
        "energy_balance_oi": energy.energy_balance,
        "gflops_per_watt_at_ridge": energy.gflops_per_watt(roof.balance),
    }


#: (report key, row label, format) — the side-by-side table, in order.
_ROWS: Tuple[Tuple[str, str, str], ...] = (
    ("system", "system", "{}"),
    ("chips", "chips", "{:.0f}"),
    ("cores", "cores", "{:.0f}"),
    ("smt_ways", "SMT ways", "{:.0f}"),
    ("threads", "hardware threads", "{:.0f}"),
    ("frequency_ghz", "frequency (GHz)", "{:.2f}"),
    ("line_bytes", "cache line (B)", "{:.0f}"),
    ("page_kib", "base page (KiB)", "{:.0f}"),
    ("l1d_kib", "L1D (KiB)", "{:.0f}"),
    ("l2_kib", "L2 (KiB)", "{:.0f}"),
    ("llc_mib_per_chip", "LLC / chip (MiB)", "{:.1f}"),
    ("memside_cache_mib_per_chip", "mem-side cache / chip (MiB)", "{:.1f}"),
    ("latency_l1_ns", "latency: L1 (ns)", "{:.2f}"),
    ("latency_l2_ns", "latency: L2 (ns)", "{:.2f}"),
    ("latency_llc_ns", "latency: LLC (ns)", "{:.2f}"),
    ("latency_dram_ns", "latency: DRAM 1 GiB (ns)", "{:.1f}"),
    ("stream_read_only_gbs", "STREAM read-only (GB/s)", "{:.1f}"),
    ("stream_optimal_gbs", "STREAM best mix (GB/s)", "{:.1f}"),
    ("optimal_read_write", "best read:write mix", "{}"),
    ("random_access_peak_gbs", "random-access peak (GB/s)", "{:.1f}"),
    ("prefetch_latency_off_ns", "scan latency, prefetch off (ns)", "{:.2f}"),
    ("prefetch_latency_deep_ns", "scan latency, deepest (ns)", "{:.2f}"),
    ("prefetch_deep_distance_lines", "deepest prefetch distance (lines)", "{:.0f}"),
    ("peak_gflops", "peak DP (GFLOP/s)", "{:.1f}"),
    ("peak_memory_bandwidth_gbs", "peak memory BW (GB/s)", "{:.1f}"),
    ("write_roof_gbs", "write roof (GB/s)", "{:.1f}"),
    ("ridge_oi_flops_per_byte", "roofline ridge (flop/B)", "{:.2f}"),
    ("energy_balance_oi", "energy balance (flop/B)", "{:.2f}"),
    ("gflops_per_watt_at_ridge", "GFLOP/s per watt at ridge", "{:.2f}"),
)


def compare_reports(names: Sequence[str]) -> List[Dict[str, object]]:
    """Characterize every named machine (canonicalized, deduplicated)."""
    seen, reports = set(), []
    for name in names:
        machine = canonical_name(name)
        if machine in seen:
            continue
        seen.add(machine)
        reports.append(characterize(machine))
    return reports


def format_compare(reports: Sequence[Dict[str, object]]) -> str:
    """The side-by-side report: one metric per row, one machine per column."""
    from ..reporting.tables import format_table

    headers = ["metric"] + [str(r["machine"]) for r in reports]
    rows = []
    for key, label, fmt in _ROWS:
        rows.append([label] + [fmt.format(r[key]) for r in reports])
    return format_table(
        headers, rows, title="Machine zoo: cross-architecture characterization"
    )


def run_compare_bench(names: Optional[Sequence[str]] = None) -> Dict[str, object]:
    """``perf compare``: the comparison as a trajectory-gated artifact."""
    reports = compare_reports(names or DEFAULT_MACHINES)
    return {
        "bench": "compare",
        "machines": {str(r["machine"]): r for r in reports},
    }


# -- zoo selftest -------------------------------------------------------------


def _golden_zoo_path():
    from pathlib import Path
    import os

    env = os.environ.get("REPRO_GOLDEN_ZOO")
    if env:
        return Path(env)
    # Repo layout: src/repro/bench/compare.py -> repo root 3 levels up.
    return Path(__file__).resolve().parents[3] / "tests" / "arch" / "golden_zoo.json"


def zoo_selftest(names: Optional[Sequence[str]] = None) -> Tuple[bool, List[str]]:
    """Fast zoo gate: invariants + figure conformance + golden headlines.

    Per machine: the latency curve must be monotone in the working set,
    sustained STREAM must not beat the link peak, the roofline must be
    well-formed, and the analytic figure cases must agree exactly with
    the experiment registry.  Machines pinned in
    ``tests/arch/golden_zoo.json`` are additionally checked against
    their pinned model numbers and published anchors.
    """
    from ..perfmodel.differential import FIGURE_CASES, run_differential
    from ..reporting.compare import is_monotone, within_factor

    machines = [canonical_name(n) for n in (names or available_machines())]
    golden_path = _golden_zoo_path()
    golden = {}
    if golden_path.exists():
        golden = json.loads(golden_path.read_text(encoding="utf-8"))["machines"]

    ok = True
    lines: List[str] = []

    def check(label: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        status = "ok  " if passed else "FAIL"
        lines.append(f"{status} {label:44s} {detail}")

    for machine in machines:
        system = get_system(machine)
        oracle = AnalyticOracle(system)
        report = characterize(machine)
        page = system.chip.page_size

        sizes = [16 * KIB << (2 * i) for i in range(10)]
        curve = [oracle.latency_ns(w, page) for w in sizes]
        check(
            f"{machine}: latency monotone vs working set",
            is_monotone(curve, increasing=True, tolerance=1e-9),
            f"{curve[0]:.2f}ns -> {curve[-1]:.2f}ns",
        )
        check(
            f"{machine}: STREAM within link peak",
            report["stream_optimal_gbs"]
            <= report["peak_memory_bandwidth_gbs"] * (1 + 1e-9),
            f"{report['stream_optimal_gbs']:.1f} <= "
            f"{report['peak_memory_bandwidth_gbs']:.1f} GB/s",
        )
        roof_ok = (
            report["peak_gflops"] > 0
            and report["ridge_oi_flops_per_byte"] > 0
            and report["write_roof_gbs"]
            <= report["peak_memory_bandwidth_gbs"] * (1 + 1e-9)
        )
        check(
            f"{machine}: roofline well-formed",
            roof_ok,
            f"ridge {report['ridge_oi_flops_per_byte']:.2f} flop/B",
        )

        for result in run_differential(
            system, names=FIGURE_CASES, machine=machine
        ):
            check(
                f"{machine}: conformance {result.name}",
                result.passed,
                f"rel_err={result.rel_err:.1e} tol={result.tolerance:.1e}",
            )

        pinned = golden.get(machine)
        if not pinned:
            lines.append(f"     {machine}: no golden headline table (skipped)")
            continue
        for key, expected in pinned["model"].items():
            got = report[key]
            if isinstance(expected, str):
                check(f"{machine}: golden {key}", got == expected, str(got))
            else:
                scale = max(abs(float(expected)), 1e-30)
                err = abs(float(got) - float(expected)) / scale
                check(
                    f"{machine}: golden {key}", err <= 1e-6, f"rel_err={err:.1e}"
                )
        factor = float(pinned.get("factor", 1.5))
        for key, published in pinned.get("published", {}).items():
            got = float(report[key])
            check(
                f"{machine}: published {key}",
                within_factor(got, float(published), factor),
                f"model {got:.1f} vs published {published:.1f} "
                f"(within {factor:g}x)",
            )

    checked = sum(1 for line in lines if not line.startswith("     "))
    failed = sum(1 for line in lines if line.startswith("FAIL"))
    lines.append(
        f"{checked - failed}/{checked} zoo checks passed across "
        f"{len(machines)} machines"
    )
    if not golden:
        lines.append(f"(golden headline table not found at {golden_path})")
    return ok, lines
