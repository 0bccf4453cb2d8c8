"""Analytic steady-state oracle: O(1) predictions for every paper figure.

The trace-driven engines answer "what latency does this workload see"
in O(accesses); this module answers the same questions in O(1) from a
:class:`~repro.arch.specs.SystemSpec` plus a workload description —
working-set size, stride/page shape, read:write mix, DSCR depth,
thread/core placement.  It composes the calibrated closed-form pieces
that already exist (:class:`repro.mem.analytic.AnalyticHierarchy`,
:mod:`repro.perfmodel.stream_model`,
:class:`repro.perfmodel.littles_law.RandomAccessModel`,
:func:`repro.prefetch.engine.ramp_schedule`,
:class:`repro.roofline.model.Roofline`) behind one uniform
request/result schema, so a single :class:`AnalyticOracle` emits
``lat_mem``-shaped latency curves, Table III STREAM bandwidths,
prefetch-depth sweeps and roofline points.

Two families of predictions
---------------------------
*Figure models* reproduce the paper's analytic shapes (the same code
paths the experiment registry uses, so the two cannot drift).  *Trace
twins* predict what the trace-driven batch engine itself reports for a
given run — :meth:`AnalyticOracle.stream_sweep` reproduces the cold
sequential sweep of ``tools/stream --trace`` (including the PMU
prefetch counters) in closed form, exactly, by replaying the
prefetcher's confidence ramp analytically; :meth:`chase_latency_ns`
predicts the random-chase point of ``tools/lat_mem --trace`` through
the capacity model.  ``repro.perfmodel.differential`` cross-validates
every twin against the simulator under per-figure tolerances recorded
in a golden file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.specs import ChipSpec, SystemSpec
from ..mem.analytic import AnalyticHierarchy
from ..mem.dram import DRAMModel
from ..prefetch.dcbt import dcbt_sweep
from ..prefetch.dscr import dscr_sweep, prefetch_distance
from ..prefetch.engine import ramp_schedule
from ..prefetch.stride import stride_sweep
from ..roofline.model import Roofline
from .compiled import CompiledMachineModel, compiled_model
from .kernel_time import KernelProfile, MachineModel
from .littles_law import RandomAccessModel
from .stream_model import (
    TABLE3_RATIOS,
    chip_stream_bandwidth,
    fig3a_points,
    fig3b_points,
    system_stream_bandwidth,
    table3_rows,
)

GB = 1e9

#: Page size of the default (non-huge) configuration, bytes.
DEFAULT_PAGE = 64 * 1024

#: Every request kind the oracle answers, with the figure it twins.
REQUEST_KINDS = {
    "lat_mem": "Figure 2 latency curve (working-set sweep)",
    "chase": "trace twin: lat_mem --trace random-chase point",
    "stream_table3": "Table III read:write ratio sweep",
    "stream_point": "one STREAM bandwidth point (ratio or placement)",
    "stream_scaling": "Figure 3 thread/core scaling",
    "stream_sweep": "trace twin: tools/stream --trace sequential sweep",
    "prefetch_sweep": "trace twin: traced DSCR depth sweep (Figure 6)",
    "dscr_model": "Figure 6 closed-form latency/bandwidth sweep",
    "stride": "Figure 7 stride-N detection sweep",
    "dcbt": "Figure 8 DCBT block-scan sweep",
    "random_access": "Figure 4 random-access bandwidth grid",
    "roofline": "Figure 9 roofline bounds",
}


@dataclass(frozen=True)
class OracleRequest:
    """Uniform workload description every oracle query goes through.

    Only the fields a ``kind`` consumes are read; the rest keep their
    defaults, so requests serialize to small stable dicts (the service
    layer's cache key).
    """

    kind: str
    working_set: int = 4 << 20  # bytes (chase point / stream sweep)
    working_sets: Tuple[int, ...] = ()  # lat_mem curve sizes
    page_size: int = DEFAULT_PAGE
    depth: int = 0  # DSCR setting; 0 = prefetch off
    depths: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)
    read_ratio: float = 2.0
    write_ratio: float = 1.0
    cores: Optional[int] = None
    threads_per_core: int = 8
    thread_counts: Tuple[int, ...] = (1, 2, 4, 8)
    stream_counts: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    stride_lines: int = 256

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ValueError(
                f"unknown oracle request kind {self.kind!r}; "
                f"known: {sorted(REQUEST_KINDS)}"
            )

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "OracleRequest":
        coerced = dict(data)
        for key in ("working_sets", "depths", "thread_counts", "stream_counts"):
            if key in coerced and coerced[key] is not None:
                coerced[key] = tuple(coerced[key])  # type: ignore[arg-type]
        return cls(**coerced)  # type: ignore[arg-type]


@dataclass(slots=True)
class OracleResult:
    """Tabular prediction with the request that produced it.

    ``slots=True`` keeps construction cheap: every analytic miss the
    serve daemon answers builds one of these.
    """

    kind: str
    title: str
    headers: Tuple[str, ...]
    rows: List[Tuple]
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: str = ""
    request: Optional[OracleRequest] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "metrics": dict(self.metrics),
            "notes": self.notes,
            "request": self.request.to_dict() if self.request else None,
        }

    def render(self) -> str:
        from ..reporting.tables import format_table

        text = format_table(self.headers, self.rows, title=f"oracle:{self.kind} — {self.title}")
        if self.notes:
            text += f"\n{self.notes}"
        return text


@dataclass(frozen=True)
class StreamSweepPrediction:
    """Closed-form twin of one cold sequential sweep on the batch engine.

    Field-for-field what :func:`repro.prefetch.traced.traced_sequential_scan`
    measures (latency plus the PMU prefetch/DRAM counters), predicted
    without running the trace.
    """

    depth: int
    accesses: int
    mean_latency_ns: float
    per_stream_bandwidth: float  # bytes/s, line / mean latency
    dram_misses: int
    prefetch_issued: int
    prefetch_useful: int

    @property
    def prefetch_accuracy(self) -> float:
        return self.prefetch_useful / self.prefetch_issued if self.prefetch_issued else 0.0


class AnalyticOracle:
    """One machine's O(1) prediction engine for every paper figure."""

    def __init__(self, system: SystemSpec, dram: Optional[DRAMModel] = None) -> None:
        self.system = system
        self.chip = system.chip
        #: Compiled spec-derived state (bounded registry entry when the
        #: DRAM geometry is the default; private otherwise, since the
        #: model carries the DRAM the trace twins read).  Bounding lives
        #: there: hierarchies per page size, registry entries.
        self.compiled: CompiledMachineModel = compiled_model(system, dram)
        #: DRAM geometry/timing assumed by the trace twins; mirrors the
        #: :class:`DRAMModel` the hierarchy instantiates by default.
        self.dram = self.compiled.dram

    # -- composed sub-models (compiled once per spec, shared) -----------------
    def hierarchy(self, page_size: int = DEFAULT_PAGE) -> AnalyticHierarchy:
        return self.compiled.hierarchy(page_size)

    @property
    def random_access(self) -> RandomAccessModel:
        return self.compiled.random_access

    @property
    def roofline(self) -> Roofline:
        return self.compiled.roofline

    @property
    def machine_model(self) -> MachineModel:
        return self.compiled.machine_model

    # -- latency curves (Figure 2 / lat_mem) ---------------------------------
    def latency_ns(self, working_set: int, page_size: int = DEFAULT_PAGE) -> float:
        """Mean random-chase latency at one working-set size."""
        return self.hierarchy(page_size).latency_ns(working_set)

    chase_latency_ns = latency_ns  # the lat_mem --trace twin is the same model

    def latency_curve(
        self, working_sets: Sequence[int], page_size: int = DEFAULT_PAGE
    ) -> List[Tuple[int, float]]:
        """``lat_mem``-shaped (size, latency) pairs for a size sweep."""
        model = self.hierarchy(page_size)
        return [(int(w), model.latency_ns(int(w))) for w in working_sets]

    # -- STREAM bandwidth (Table III / Figure 3) -----------------------------
    def stream_bandwidth(self, read_ratio: float = 2.0, write_ratio: float = 1.0) -> float:
        """Full-system STREAM bandwidth at a read:write byte ratio."""
        return system_stream_bandwidth(self.system, None, read_ratio, write_ratio)

    def chip_bandwidth(
        self, cores: int, threads_per_core: int, f: Optional[float] = None
    ) -> float:
        """One chip's STREAM bandwidth at a core/thread placement."""
        return chip_stream_bandwidth(self.chip, cores, threads_per_core, f)

    def table3(self, ratios: Optional[Sequence[Tuple[float, float]]] = None) -> List[dict]:
        """The Table III ratio sweep (single shared implementation)."""
        return table3_rows(self.system, TABLE3_RATIOS if ratios is None else ratios)

    # -- trace twin: cold sequential sweep (stream --trace / Fig 6 traced) ---
    def stream_sweep(
        self,
        working_set: Optional[int] = None,
        depth: int = 0,
        page_size: int = DEFAULT_PAGE,
        n_lines: Optional[int] = None,
        chip: Optional[ChipSpec] = None,
    ) -> StreamSweepPrediction:
        """Predict a cold line-granular sequential sweep, exactly.

        The batch engine's bulk streaming/prefetcher paths commit this
        regime deterministically, which makes it predictable in closed
        form: every demand access before the prefetcher's
        ``CONFIRM_ACCESSES``-touch confirmation misses to DRAM; once the
        first :func:`ramp_schedule` step covers the next demand line,
        every later access hits the prefetched line in L2.  DRAM costs
        follow the open-page row buffers (one row miss per
        ``row_size`` bytes), translation costs one cold ERAT+TLB fill
        per page, and the prefetch counters fall out of the ramp's
        saturating horizon.  ``depth`` 0 (or DSCR setting 1) runs with
        prefetching off: the all-miss streaming regime.
        """
        chip = chip if chip is not None else self.chip
        line = chip.core.l1d.line_size
        if n_lines is None:
            if working_set is None:
                raise ValueError("need working_set bytes or n_lines")
            n_lines = int(working_set) // line
        n = int(n_lines)
        if n <= 0:
            raise ValueError(f"sweep needs at least one line, got {n}")
        dram = self.dram
        tlb = chip.core.tlb
        last_addr = (n - 1) * line
        n_pages = last_addr // page_size + 1
        trans_ns = n_pages * chip.cycles_to_ns(
            tlb.erat_miss_penalty_cycles + tlb.tlb_miss_penalty_cycles
        )
        pf = chip.prefetch
        confirm = pf.confirm_accesses
        ramp_start = pf.ramp_start
        distance = prefetch_distance(depth, pf) if depth else 0

        if distance == 0:
            # All-miss streaming: one row-miss precharge per distinct row.
            n_rows = last_addr // dram.row_size + 1
            dram_ns = n * dram.hit_latency_ns + n_rows * dram.miss_extra_ns
            misses, issued, useful = n, 0, 0
            total_ns = dram_ns + trans_ns
        else:
            misses = min(n, confirm)
            # The leading demand misses walk the cold open-page state.
            open_rows: Dict[int, int] = {}
            dram_ns = 0.0
            for i in range(misses):
                row = (i * line) // dram.row_size
                bank = row % dram.num_banks
                dram_ns += dram.hit_latency_ns
                if open_rows.get(bank) != row:
                    dram_ns += dram.miss_extra_ns
                    open_rows[bank] = row
            issued = useful = 0
            if n >= confirm:
                # Confirmed advances ramp along the engine's exact
                # schedule; the horizon after the last access fixes the
                # total lines ever emitted.
                sched = ramp_schedule(ramp_start, distance, n, ramp_start)
                advances = n - (confirm - 1)
                final_depth = sched[min(advances, len(sched)) - 1]
                issued = (n - 1) + final_depth - (confirm - 1)
                useful = max(0, n - confirm)
            lat_l2 = chip.cycles_to_ns(chip.core.l2.latency_cycles)
            total_ns = dram_ns + (n - misses) * lat_l2 + trans_ns

        mean = total_ns / n
        return StreamSweepPrediction(
            depth=depth,
            accesses=n,
            mean_latency_ns=mean,
            per_stream_bandwidth=line / (mean * 1e-9),
            dram_misses=misses,
            prefetch_issued=issued,
            prefetch_useful=useful,
        )

    def prefetch_depth_sweep(
        self,
        depths: Optional[Sequence[int]] = None,
        n_lines: int = 4096,
        chip: Optional[ChipSpec] = None,
    ) -> List[StreamSweepPrediction]:
        """Trace twin of :func:`repro.prefetch.traced.traced_dscr_sweep`."""
        target = chip if chip is not None else self.chip
        if depths is None:
            depths = tuple(sorted(target.prefetch.depth_map))
        # The traced sweep's hierarchy translates at the chip's own base
        # page size; the twin must walk the identical page grid.
        return [
            self.stream_sweep(
                depth=d, n_lines=n_lines, page_size=target.page_size, chip=chip
            )
            for d in depths
        ]

    # -- random access (Figure 4) --------------------------------------------
    def random_access_bandwidth(self, threads_per_core: int, streams_per_thread: int) -> float:
        return self.random_access.bandwidth(threads_per_core, streams_per_thread)

    # -- kernels (roofline time estimates) -----------------------------------
    def kernel_time(self, kernel: KernelProfile) -> float:
        return self.machine_model.time(kernel)

    def kernel_gflops(self, kernel: KernelProfile) -> float:
        return self.machine_model.gflops(kernel)

    # -- the uniform entry point ---------------------------------------------
    def predict(self, request: OracleRequest) -> OracleResult:
        """Answer one request; every kind returns the same result shape."""
        try:
            handler = getattr(self, f"_predict_{request.kind}")
        except AttributeError:  # pragma: no cover — __post_init__ guards
            raise ValueError(f"unknown oracle request kind {request.kind!r}") from None
        result = handler(request)
        result.request = request
        return result

    # -- per-kind handlers -----------------------------------------------------
    def _predict_lat_mem(self, req: OracleRequest) -> OracleResult:
        sizes = req.working_sets or tuple(default_working_sets())
        rows = self.latency_curve(sizes, req.page_size)
        return OracleResult(
            "lat_mem", "memory read latency vs working set",
            ("working_set_bytes", "latency_ns"), [tuple(r) for r in rows],
            metrics={"points": float(len(rows))},
        )

    def _predict_chase(self, req: OracleRequest) -> OracleResult:
        latency = self.chase_latency_ns(req.working_set, req.page_size)
        fractions = self.hierarchy(req.page_size).level_fractions(req.working_set)
        return OracleResult(
            "chase", "random pointer-chase latency (trace twin)",
            ("working_set_bytes", "latency_ns"),
            [(req.working_set, latency)],
            metrics={f"fraction_{k}": v for k, v in fractions.items()},
        )

    def _predict_stream_table3(self, req: OracleRequest) -> OracleResult:
        del req
        rows = [(r["read"], r["write"], r["bandwidth"] / GB) for r in self.table3()]
        peak = max(r[2] for r in rows)
        return OracleResult(
            "stream_table3", "STREAM bandwidth vs read:write ratio",
            ("read", "write", "bandwidth_gbs"), rows,
            metrics={"peak_gbs": peak},
            notes="peak at the 2:1 mix of the two-read/one-write Centaur links",
        )

    def _predict_stream_point(self, req: OracleRequest) -> OracleResult:
        if req.cores is not None:
            bw = self.chip_bandwidth(req.cores, req.threads_per_core)
            rows = [(req.cores, req.threads_per_core, bw / GB)]
            headers = ("cores", "threads_per_core", "bandwidth_gbs")
        else:
            bw = self.stream_bandwidth(req.read_ratio, req.write_ratio)
            rows = [(req.read_ratio, req.write_ratio, bw / GB)]
            headers = ("read", "write", "bandwidth_gbs")
        return OracleResult(
            "stream_point", "one STREAM bandwidth point", headers, rows,
            metrics={"bandwidth": bw},
        )

    def _predict_stream_scaling(self, req: OracleRequest) -> OracleResult:
        rows = [
            (p.cores, p.threads_per_core, p.bandwidth / GB)
            for p in fig3a_points(self.chip, req.thread_counts)
        ] + [
            (p.cores, p.threads_per_core, p.bandwidth / GB)
            for p in fig3b_points(self.chip, thread_counts=req.thread_counts)
            if p.cores != 1
        ]
        return OracleResult(
            "stream_scaling", "STREAM scaling with threads and cores",
            ("cores", "threads_per_core", "bandwidth_gbs"), rows,
            metrics={"chip_peak_gbs": max(r[2] for r in rows)},
        )

    def _predict_stream_sweep(self, req: OracleRequest) -> OracleResult:
        p = self.stream_sweep(req.working_set, req.depth, req.page_size)
        return OracleResult(
            "stream_sweep", "cold sequential sweep (trace twin)",
            ("depth", "accesses", "mean_latency_ns", "bandwidth_gbs",
             "dram_misses", "prefetch_issued", "prefetch_useful"),
            [(p.depth, p.accesses, p.mean_latency_ns,
              p.per_stream_bandwidth / GB, p.dram_misses,
              p.prefetch_issued, p.prefetch_useful)],
            metrics={
                "mean_latency_ns": p.mean_latency_ns,
                "per_stream_bandwidth": p.per_stream_bandwidth,
                "prefetch_accuracy": p.prefetch_accuracy,
            },
        )

    def _predict_prefetch_sweep(self, req: OracleRequest) -> OracleResult:
        n_lines = req.working_set // self.chip.core.l1d.line_size
        rows = [
            (p.depth, p.accesses, p.mean_latency_ns, p.dram_misses,
             p.prefetch_issued, p.prefetch_useful, p.prefetch_accuracy)
            for p in self.prefetch_depth_sweep(req.depths, n_lines=n_lines)
        ]
        return OracleResult(
            "prefetch_sweep", "traced DSCR depth sweep (trace twin)",
            ("depth", "accesses", "mean_latency_ns", "dram_misses",
             "prefetch_issued", "prefetch_useful", "prefetch_accuracy"),
            rows,
            notes="depth 1 disables the engine: the all-miss streaming regime",
        )

    def _predict_dscr_model(self, req: OracleRequest) -> OracleResult:
        del req
        rows = [
            (p.depth, p.distance_lines, p.latency_ns, p.bandwidth / GB)
            for p in dscr_sweep(self.system)
        ]
        return OracleResult(
            "dscr_model", "Figure 6 closed-form DSCR sweep",
            ("depth", "distance_lines", "latency_ns", "bandwidth_gbs"), rows,
        )

    def _predict_stride(self, req: OracleRequest) -> OracleResult:
        rows = [
            (r["depth"], r["latency_disabled_ns"], r["latency_enabled_ns"])
            for r in stride_sweep(self.chip, stride_lines=req.stride_lines)
        ]
        return OracleResult(
            "stride", f"stride-{req.stride_lines} detection sweep (Figure 7)",
            ("depth", "latency_disabled_ns", "latency_enabled_ns"), rows,
        )

    def _predict_dcbt(self, req: OracleRequest) -> OracleResult:
        del req
        sizes = [1 << s for s in range(8, 21)]
        rows = [
            (r["bsize"], r["efficiency_hw"], r["efficiency_dcbt"], r["gain"])
            for r in dcbt_sweep(self.chip, sizes)
        ]
        return OracleResult(
            "dcbt", "DCBT block-scan sweep (Figure 8)",
            ("block_bytes", "efficiency_hw", "efficiency_dcbt", "gain"), rows,
        )

    def _predict_random_access(self, req: OracleRequest) -> OracleResult:
        points = self.random_access.sweep(req.thread_counts, req.stream_counts)
        rows = [
            (p.threads_per_core, p.streams_per_thread, p.concurrency, p.bandwidth / GB)
            for p in points
        ]
        return OracleResult(
            "random_access", "random-access bandwidth grid (Figure 4)",
            ("threads_per_core", "streams_per_thread", "concurrency", "bandwidth_gbs"),
            rows,
            metrics={"peak_gbs": max(r[3] for r in rows)},
        )

    def _predict_roofline(self, req: OracleRequest) -> OracleResult:
        del req
        roof = self.roofline
        rows = roofline_rows(roof)
        return OracleResult(
            "roofline", "roofline bounds (Figure 9)",
            ("kernel", "operational_intensity", "bound_gflops", "bound_by"), rows,
            metrics={
                "balance": roof.balance,
                "peak_gflops": roof.peak_gflops,
                "write_roof_gbs": roof.write_only_bandwidth / GB,
            },
        )


def roofline_rows(roof: Roofline) -> List[Tuple[str, float, float, str]]:
    """The Figure 9 kernel table from one :class:`Roofline`.

    Shared between the experiment registry and the oracle so the two
    renderings cannot drift.
    """
    from ..roofline.kernels import paper_kernels_with_write_case

    return [
        (
            point.name, point.operational_intensity, point.bound_gflops,
            "memory" if point.memory_bound else "compute",
        )
        for point in roof.place_all(paper_kernels_with_write_case())
    ]


def default_working_sets(min_bytes: int = 16 * 1024, max_bytes: int = 8 << 30) -> List[int]:
    """Log-spaced working-set sizes, four points per octave.

    The canonical lat_mem sweep grid; ``repro.bench.latency`` re-exports
    this so the harness and the oracle sample identical sizes.
    """
    sizes, size = [], float(min_bytes)
    while size <= max_bytes:
        sizes.append(int(size))
        size *= 2 ** 0.25
    return sizes
