"""Steady-state fast-path micro-benchmark: bulk regime paths vs scalar chunks.

Times the batch trace engine with its regime-classified bulk commit
paths enabled (``fast_paths=True``, the default) against the same
engine restricted to the original resident-read path + scalar loop
(``fast_paths=False``) on the paper's steady-state regimes:

* ``stream_read`` — a STREAM-style sequential read sweep (Table III),
  committed by the monotone all-miss streaming path;
* ``stream_write`` — the same sweep with a store mix (triad-like),
  exercising the streaming path's write support;
* ``resident_write`` — an L1-resident read/write chase (lmbench
  plateau), exercising the write-enabled resident fast path;
* ``prefetch`` — the sequential sweep with a confirmed
  :class:`~repro.prefetch.engine.StreamPrefetcher` stream (Figs 6-8),
  committed by the closed-form prefetcher-advance path.

Every lane simulates the identical trace both ways and cross-checks the
mean simulated latency, so the speedup it reports is for bit-identical
results.  ``python -m repro.bench perf stream-fastpath`` runs it,
writes ``BENCH_stream_fastpath.json`` and exits 1 below a lane's floor
(the >=5x acceptance bar on the prefetcher-on lane).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..arch import e870
from ..arch.power8 import PAGE_64K
from ..arch.specs import SystemSpec
from ..mem.batch import BatchMemoryHierarchy
from ..prefetch.engine import StreamPrefetcher
from .perf import time_repeats

#: Headline configuration (the acceptance-criteria point).
DEFAULT_ACCESSES = 200_000
DEFAULT_PREFETCH_DEPTH = 7
DEFAULT_RESIDENT_SET = 16 << 10


def _lane_traces(line: int, n_accesses: int, resident_set: int):
    """The four regime traces as ``name -> (addrs, is_write, depth)``."""
    seq = np.arange(n_accesses, dtype=np.int64) * line
    writes = np.zeros(n_accesses, dtype=bool)
    writes[::3] = True  # triad-like: one store per three references
    resident = np.tile(
        np.arange(0, resident_set, line, dtype=np.int64),
        -(-n_accesses // (resident_set // line)),
    )[:n_accesses]
    res_writes = np.zeros(n_accesses, dtype=bool)
    res_writes[::3] = True
    return {
        "stream_read": (seq, False, None),
        "stream_write": (seq, writes, None),
        "resident_write": (resident, res_writes, None),
        "prefetch": (seq, False, DEFAULT_PREFETCH_DEPTH),
    }


def _fresh_hierarchy(
    chip, depth: Optional[int], fast_paths: bool, page_size: int, warm
) -> BatchMemoryHierarchy:
    """A new engine for one timed run (optionally prefetching, optionally warmed)."""
    prefetcher = (
        StreamPrefetcher(chip.core.l1d.line_size, depth=depth)
        if depth is not None
        else None
    )
    hier = BatchMemoryHierarchy(
        chip,
        page_size=page_size,
        prefetcher=prefetcher,
        fast_paths=fast_paths,
    )
    if warm is not None:
        hier.warm(warm)
    return hier


def run_stream_fastpath_bench(
    n_accesses: int = DEFAULT_ACCESSES,
    page_size: int = PAGE_64K,
    repeats: int = 3,
    system: Optional[SystemSpec] = None,
) -> dict:
    """Time ``fast_paths=True`` vs ``False`` on each steady-state regime.

    Both settings simulate the identical trace (fresh hierarchy per run)
    and must report the identical mean latency — the speedups are for
    bit-identical results, not an approximation trade.
    """
    spec = system if system is not None else e870()
    chip = spec.chip
    line = chip.core.l1d.line_size
    warm_resident = np.arange(0, DEFAULT_RESIDENT_SET, line, dtype=np.int64)
    lanes = {}
    for name, (addrs, is_write, depth) in _lane_traces(
        line, n_accesses, DEFAULT_RESIDENT_SET
    ).items():
        warm = warm_resident if name == "resident_write" else None
        scalar, fast = (
            time_repeats(
                lambda hier: hier.access_trace(addrs, is_write),
                repeats,
                setup=lambda: _fresh_hierarchy(chip, depth, fast_paths, page_size, warm),
            )
            for fast_paths in (False, True)
        )
        scalar_latency = scalar.value.mean_latency_ns
        fast_latency = fast.value.mean_latency_ns
        if scalar_latency != fast_latency:
            raise AssertionError(
                f"{name}: fast paths changed the simulation "
                f"({scalar_latency} ns vs {fast_latency} ns)"
            )
        lanes[name] = {
            **scalar.record("scalar"),
            **fast.record("fast"),
            "scalar_ns_per_access": 1e9 * scalar.min_s / n_accesses,
            "fast_ns_per_access": 1e9 * fast.min_s / n_accesses,
            "speedup": scalar.min_s / fast.min_s,
            "simulated_mean_latency_ns": fast_latency,
        }
    return {
        "benchmark": "stream_fastpath_regimes",
        "accesses": int(n_accesses),
        "page_size": int(page_size),
        "repeats": int(repeats),
        "prefetch_depth": DEFAULT_PREFETCH_DEPTH,
        "resident_set_bytes": DEFAULT_RESIDENT_SET,
        "lanes": lanes,
    }
