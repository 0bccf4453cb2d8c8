"""Vectorized batch trace engine for the memory-hierarchy simulator.

:class:`BatchMemoryHierarchy` is a drop-in counterpart of
:class:`repro.mem.hierarchy.MemoryHierarchy` whose
:meth:`~BatchMemoryHierarchy.access_trace` processes whole NumPy address
arrays in one call.  It is bit-for-bit equivalent to the reference
per-access simulator — identical per-level hit counts, per-access
latencies, LRU replacement state and eviction/write-back streams — and
is what makes million-access lmbench-style traces affordable (see
``BENCH_trace.json`` and ``python -m repro.bench perf trace``).

Design
------
The cache core is :class:`ArrayCache`: each set is a flat *tag row* in
which position encodes the LRU rank (index 0 = least recently used,
last index = most recently used), with a parallel dirty row.  Rows are
plain Python lists in flight and export to dense NumPy ``(num_sets,
assoc)`` arrays at batch boundaries via :meth:`ArrayCache.state_arrays`.
A measured note on why the in-flight rows are lists rather than NumPy
slices: per-access single-row NumPy operations cost ~2 µs each under
CPython (array-protocol dispatch dominates), ~16x *slower* than C-level
list scans at the 8–16 way associativities modelled here.  NumPy earns
its keep at the *batch* level instead:

* address -> line/page slicing is one vectorized shift per batch;
* the trace is processed in chunks, and each chunk is screened against
  a small set of *steady-state regimes* whose net effect on the caches
  is closed-form.  A chunk that matches commits in bulk; one that
  matches none falls back to a lean scalar loop over pre-sliced
  line/page lists (no ``AccessResult`` allocations, no per-access
  attribute chasing).

Bulk-committed regimes (each bit-for-bit identical to the reference
engine — see ``tests/mem/test_stream_fastpath.py`` and the property
suite):

**Resident** — every distinct line L1-resident, every distinct page
ERAT+TLB-hot.  Every access is an L1 hit with zero translation
penalty; the LRU outcome is the distinct lines (and pages) moved to
MRU in ascending order of last occurrence (from ``np.unique`` over the
reversed chunk).  Writes ride along: the store-through L1->L2
propagation of an all-resident write is an L2 hit, so when the written
lines are also L2-resident the chunk is the same bulk permutation plus
an L2 one and a single ``PM_ST_REF`` increment.  This is the
pointer-chase steady state of the paper's Figure 2 plateaus.

**Streaming** — monotone line addresses, every distinct line absent
from every level.  Each first touch misses L1..L4 and fetches from
DRAM (:meth:`DRAMModel.access_batch` does the bank/row math
array-wise); repeats are L1 hits.  Fills and evictions per set reduce
to one list splice per set for the L1 and a lean per-line cascade for
L2->L3->L3R->L4; translation collapses to one ``translate_page`` per
page run.  This is the cold-stream regime of STREAM-style kernels
(Table III) and the out-of-cache lmbench points.

**Prefetcher steady state** — a confirmed
:class:`~repro.prefetch.engine.StreamPrefetcher` stream advancing over
a constant-stride read chunk.  The engine's behavior is closed-form
(confidence ramp doubling to the DSCR distance, then one issue per
access), every demand is an L2 hit with usefulness credit, and the
prefetch fills stream through the same bulk cascade.  This is what
makes the Figure 6-8 DSCR/stride/DCBT sweeps and ``repro.tools.stream
--trace`` runs fast (see ``BENCH_stream_fastpath.json``).
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..arch.specs import CacheSpec, ChipSpec
from ..pmu import events as pmu_events
from ..pmu.counters import CounterBank
from .cache import CacheStats
from .dram import DRAMModel
from .hierarchy import (
    DEFAULT_REMOTE_L3_EXTRA_NS,
    LEVELS,
    AccessResult,
    HierarchyStats,
    PrefetcherProtocol,
    TraceResult,
    memory_side_cache_spec,
)
from .tlb import TLB

#: Accesses per residency-screened chunk.  Large enough to amortize the
#: two ``np.unique`` calls, small enough that a phase change (working
#: set leaving the L1) only serializes one chunk.
DEFAULT_CHUNK = 16384

#: Scalar-fallback step when bulk regime paths are enabled: a failed
#: screen advances only this far scalar before retrying, so a stream
#: that confirms (or a working set that drains) mid-chunk costs at most
#: one short scalar run instead of a whole chunk at reference speed.
_SCALAR_STEP = 1024

_L1_CODE = LEVELS.index("L1")
_L2_CODE = LEVELS.index("L2")
_DRAM_CODE = LEVELS.index("DRAM")

_prefetch_engine_mod = None


def _prefetch_engine():
    """Lazy import of :mod:`repro.prefetch.engine`.

    ``repro.prefetch`` imports :mod:`repro.prefetch.traced`, which
    imports this module — a module-level import here would be circular.
    """
    global _prefetch_engine_mod
    if _prefetch_engine_mod is None:
        from ..prefetch import engine as _prefetch_engine_mod_
        _prefetch_engine_mod = _prefetch_engine_mod_
    return _prefetch_engine_mod


def _per_access_write_flags(is_write, n: int) -> Optional[np.ndarray]:
    """Normalize a scalar-or-array write flag to a bool array.

    Returns ``None`` when every access is a read, mirroring
    :func:`repro.mem.hierarchy._per_access_writes` but keeping the NumPy
    array: the batch engine screens whole chunks with ``np.any`` /
    ``np.count_nonzero`` instead of Python-level iteration.
    """
    if isinstance(is_write, (bool, int, np.bool_)):
        return np.ones(n, dtype=bool) if is_write else None
    arr = np.asarray(is_write, dtype=bool).ravel()
    if arr.size != n:
        raise ValueError(f"is_write has {arr.size} flags for {n} addresses")
    return arr if arr.any() else None


class ArrayCache:
    """Set-associative LRU cache on position-indexed tag rows.

    Semantically identical to :class:`repro.mem.cache.Cache` (same stats,
    same eviction choices, same dirty handling); the representation is
    one tag row + dirty row per set, ordered LRU -> MRU, exported as
    dense NumPy arrays at batch boundaries.
    """

    __slots__ = (
        "spec", "stats", "_nsets", "_assoc", "_store_in", "_tags", "_dirty",
        "_max_line",
    )

    def __init__(self, spec: CacheSpec) -> None:
        self.spec = spec
        self.stats = CacheStats()
        self._nsets = spec.num_sets
        self._assoc = spec.associativity
        self._store_in = spec.write_policy == "store-in"
        self._tags: List[List[int]] = [[] for _ in range(self._nsets)]
        self._dirty: List[List[bool]] = [[] for _ in range(self._nsets)]
        #: Highest line number ever installed — a watermark the bulk
        #: paths use as an O(1) absence proof: any line above it was
        #: never resident.  Maintained by every install site (including
        #: the inlined cascades in :class:`BatchMemoryHierarchy`, whose
        #: installs are capped by lines already counted here or by the
        #: chunk maximum they fold in).
        self._max_line = -(1 << 62)

    # -- queries ---------------------------------------------------------
    def __contains__(self, line: int) -> bool:
        return line in self._tags[line % self._nsets]

    def __len__(self) -> int:
        return sum(len(t) for t in self._tags)

    def lines(self):
        for t in self._tags:
            yield from t

    def is_dirty(self, line: int) -> bool:
        si = line % self._nsets
        tags = self._tags[si]
        # `in` + `index` (two C-level scans) beats try/except `index`:
        # a raised ValueError costs several times a short list scan.
        if line in tags:
            return self._dirty[si][tags.index(line)]
        return False

    def set_occupancy(self, set_idx: int) -> int:
        return len(self._tags[set_idx])

    # -- operations ------------------------------------------------------
    def lookup(self, line: int, is_write: bool) -> bool:
        """Probe for ``line``; updates LRU and counters.  True on hit."""
        si = line % self._nsets
        tags = self._tags[si]
        if line not in tags:
            self.stats.misses += 1
            return False
        i = tags.index(line)
        self.stats.hits += 1
        dirty_row = self._dirty[si]
        dirty = dirty_row[i]
        if is_write and self._store_in:
            dirty = True
        if i == len(tags) - 1:
            dirty_row[i] = dirty
        else:
            del tags[i]
            del dirty_row[i]
            tags.append(line)
            dirty_row.append(dirty)
        return True

    def fill(self, line: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install ``line``; returns the evicted ``(line, was_dirty)`` if any."""
        if not self._store_in:
            dirty = False
        si = line % self._nsets
        tags = self._tags[si]
        dirty_row = self._dirty[si]
        evicted: Optional[Tuple[int, bool]] = None
        if line in tags:
            # Refill of a resident line (e.g. prefetch racing demand).
            i = tags.index(line)
            dirty = dirty_row[i] or dirty
            del tags[i]
            del dirty_row[i]
        elif len(tags) >= self._assoc:
            old_line = tags.pop(0)  # LRU victim
            old_dirty = dirty_row.pop(0)
            self.stats.evictions += 1
            if old_dirty:
                self.stats.writebacks += 1
            evicted = (old_line, old_dirty)
        tags.append(line)
        dirty_row.append(dirty)
        self.stats.fills += 1
        if line > self._max_line:
            self._max_line = line
        return evicted

    def insert_victim(self, line: int, dirty: bool) -> Optional[Tuple[int, bool]]:
        """Install a line evicted from a peer cache (NUCA victim traffic)."""
        self.stats.victim_inserts += 1
        return self.fill(line, dirty)

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present; returns True when it was resident."""
        si = line % self._nsets
        tags = self._tags[si]
        if line not in tags:
            return False
        i = tags.index(line)
        del tags[i]
        del self._dirty[si][i]
        return True

    def touch_dirty(self, line: int) -> None:
        """Mark a resident line dirty without an LRU update (write-back path)."""
        si = line % self._nsets
        tags = self._tags[si]
        if line not in tags:
            raise KeyError(f"line {line} not resident in {self.spec.name}")
        if self._store_in:
            self._dirty[si][tags.index(line)] = True

    def flush(self) -> int:
        """Empty the cache; returns the number of dirty lines discarded."""
        dirty = sum(1 for row in self._dirty for d in row if d)
        self._tags = [[] for _ in range(self._nsets)]
        self._dirty = [[] for _ in range(self._nsets)]
        return dirty

    # -- batch interface -------------------------------------------------
    def contains_all(self, lines: Iterable[int]) -> bool:
        """True when every line is resident (the chunk fast-path screen)."""
        tags = self._tags
        nsets = self._nsets
        return all(ln in tags[ln % nsets] for ln in lines)

    def contains_none(self, lines: Iterable[int]) -> bool:
        """True when no line is resident (the streaming fast-path screen)."""
        tags = self._tags
        nsets = self._nsets
        return not any(ln in tags[ln % nsets] for ln in lines)

    def commit_write_hits(self, n_writes: int, ordered_lines: Iterable[int]) -> None:
        """Apply a chunk of ``n_writes`` all-hit writes in bulk.

        ``ordered_lines`` are the distinct written lines, in ascending
        order of *last* write within the chunk; each moves to MRU (same
        permutation argument as :meth:`commit_read_hits`) and, on a
        store-in cache, turns dirty — the exact net effect of replaying
        the write hits one at a time.
        """
        self.stats.hits += n_writes
        tags_rows = self._tags
        dirty_rows = self._dirty
        nsets = self._nsets
        store_in = self._store_in
        for line in ordered_lines:
            si = line % nsets
            tags = tags_rows[si]
            i = tags.index(line)
            dirty_row = dirty_rows[si]
            if i == len(tags) - 1:
                if store_in:
                    dirty_row[i] = True
            else:
                del tags[i]
                dirty = dirty_row.pop(i)
                tags.append(line)
                dirty_row.append(True if store_in else dirty)

    def commit_fill_stream(self, lines: np.ndarray) -> None:
        """Bulk-install distinct lines known to be absent, dropping victims.

        This is the demand-fill pattern of the store-through L1 on a
        streaming chunk: every line is a miss-fill and evicted victims
        fall on the floor (clean by construction upstream of a
        store-through cache; the generic writeback count is still kept).
        Per set, filling ``f`` absent lines into an occupancy-``o`` row
        leaves ``(old + new)[max(0, o + f - assoc):]`` — one list splice
        — with ``max(0, o + f - assoc)`` evictions, identical to ``f``
        sequential :meth:`fill` calls.
        """
        if lines.size == 0:
            return
        nsets = self._nsets
        sets = lines % nsets
        order = np.argsort(sets, kind="stable")
        ssets = sets[order]
        slines = lines[order]
        bounds = np.concatenate((
            np.array([0]),
            np.flatnonzero(ssets[1:] != ssets[:-1]) + 1,
            np.array([slines.size]),
        ))
        assoc = self._assoc
        tags_rows = self._tags
        dirty_rows = self._dirty
        evictions = 0
        writebacks = 0
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            si = int(ssets[a])
            tags = tags_rows[si]
            dirty_row = dirty_rows[si]
            tags.extend(slines[a:b].tolist())
            dirty_row.extend([False] * (b - a))
            overflow = len(tags) - assoc
            if overflow > 0:
                evictions += overflow
                writebacks += sum(dirty_row[:overflow])
                del tags[:overflow]
                del dirty_row[:overflow]
        self.stats.fills += int(lines.size)
        self.stats.evictions += evictions
        self.stats.writebacks += writebacks
        top = int(lines.max())
        if top > self._max_line:
            self._max_line = top

    def commit_read_hits(self, n_accesses: int, ordered_lines: Iterable[int]) -> None:
        """Apply a chunk of ``n_accesses`` all-hit reads in bulk.

        ``ordered_lines`` are the distinct lines touched, in ascending
        order of last occurrence within the chunk; moving each to MRU in
        that order reproduces the exact per-access LRU outcome.
        """
        self.stats.hits += n_accesses
        tags_rows = self._tags
        dirty_rows = self._dirty
        nsets = self._nsets
        for line in ordered_lines:
            si = line % nsets
            tags = tags_rows[si]
            i = tags.index(line)
            if i != len(tags) - 1:
                del tags[i]
                tags.append(line)
                dirty_row = dirty_rows[si]
                dirty_row.append(dirty_row.pop(i))

    def state_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense ``(tags, dirty, occupancy)`` NumPy snapshot.

        ``tags[s, k]`` is the line at LRU rank ``k`` of set ``s`` (-1 when
        the way is empty); ``dirty`` is the parallel flag plane and
        ``occupancy[s]`` the number of valid ways.
        """
        tags = np.full((self._nsets, self._assoc), -1, dtype=np.int64)
        dirty = np.zeros((self._nsets, self._assoc), dtype=bool)
        occ = np.zeros(self._nsets, dtype=np.int32)
        for s, (t, d) in enumerate(zip(self._tags, self._dirty)):
            if t:
                tags[s, : len(t)] = t
                dirty[s, : len(d)] = d
                occ[s] = len(t)
        return tags, dirty, occ

    def dump_state(self) -> Dict[int, Tuple[Tuple[int, bool], ...]]:
        """Same canonical form as :meth:`repro.mem.cache.Cache.dump_state`."""
        return {
            s: tuple(zip(t, d))
            for s, (t, d) in enumerate(zip(self._tags, self._dirty))
            if t
        }


class BatchMemoryHierarchy:
    """One core's POWER8 memory path, executed a whole trace at a time.

    Construction mirrors :class:`repro.mem.hierarchy.MemoryHierarchy`
    exactly; :meth:`access` / :meth:`read` / :meth:`write` remain for
    per-access use, and :meth:`access_trace` is the batched entry point.
    """

    def __init__(
        self,
        chip: ChipSpec,
        page_size: Optional[int] = None,
        remote_l3_extra_ns: Optional[float] = None,
        prefetcher: Optional[PrefetcherProtocol] = None,
        dram: Optional[DRAMModel] = None,
        record_victims: bool = False,
        chunk: int = DEFAULT_CHUNK,
        counters: bool = True,
        ras=None,
        fast_paths: bool = True,
    ) -> None:
        from dataclasses import replace

        self.chip = chip
        if page_size is None:
            page_size = chip.page_size
        if remote_l3_extra_ns is None:
            remote_l3_extra_ns = chip.remote_l3_extra_ns
        core = chip.core
        self.line_size = core.l1d.line_size
        self.l1 = ArrayCache(core.l1d)
        self.l2 = ArrayCache(core.l2)
        self.l3 = ArrayCache(core.l3_slice)
        peers = max(chip.cores_per_chip - 1, 0)
        self._has_remote_l3 = peers > 0
        if self._has_remote_l3:
            pooled = replace(
                core.l3_slice,
                name="L3R",
                capacity=core.l3_slice.capacity * peers,
            )
            self.l3_remote: Optional[ArrayCache] = ArrayCache(pooled)
        else:
            self.l3_remote = None
        self.l4 = ArrayCache(memory_side_cache_spec(chip))
        self.tlb = TLB(core.tlb, page_size)
        self.dram = dram if dram is not None else DRAMModel()
        #: RAS injector wiring mirrors the reference engine: faults fire
        #: only on DRAM accesses and ERAT reloads, which the bulk
        #: all-L1-hit fast path can never produce — so the batch engine
        #: reports bit-identical fault outcomes under the same seed.
        self.ras = ras
        if ras is not None:
            self.dram.ras = ras
            self.tlb.parity_hook = ras.on_erat_miss
        self.prefetcher = prefetcher
        self.stats = HierarchyStats()
        #: Live PMU events (store refs, castouts to memory); mirrors
        #: :class:`repro.mem.hierarchy.MemoryHierarchy` exactly.
        self.bank = CounterBank()
        self._counters = counters
        self._pf_pending: set[int] = set()
        #: Watermark over every line ever placed in the pending set
        #: (never lowered); with the caches' ``_max_line`` it gives the
        #: bulk screens an O(1) "provably absent everywhere" test for
        #: lines above all watermarks.
        self._pending_max = -(1 << 62)
        self.victim_log: Optional[List[Tuple[str, int, bool]]] = (
            [] if record_victims else None
        )
        if chunk <= 0:
            raise ValueError(f"chunk size must be positive, got {chunk}")
        self._chunk = chunk
        self._page_size = self.tlb.page_size
        #: ``fast_paths=False`` keeps only the original resident read
        #: path + scalar loop — the baseline that
        #: ``bench/stream_fastpath_perf.py`` measures the new regime
        #: paths against.  Results are identical either way.
        self._bulk_paths = bool(fast_paths)
        #: The monotone-chunk paths assume a line never spans pages, so
        #: that page runs follow line runs (always true for the modelled
        #: power-of-two sizes; cheap belt-and-braces for odd configs).
        self._monotone_ok = (
            self._page_size >= self.line_size
            and self._page_size % self.line_size == 0
        )

        self._lat_l1 = chip.cycles_to_ns(core.l1d.latency_cycles)
        self._lat_l2 = chip.cycles_to_ns(core.l2.latency_cycles)
        self._lat_l3 = chip.cycles_to_ns(core.l3_slice.latency_cycles)
        self._lat_l3r = self._lat_l3 + remote_l3_extra_ns
        self._lat_l4 = chip.centaur.l4_latency_ns

    # -- public API ---------------------------------------------------------
    def access_trace(self, addrs, is_write=False) -> TraceResult:
        """Simulate a whole demand trace; returns per-access arrays.

        ``addrs`` is any int array-like of byte addresses; ``is_write``
        is a scalar or a per-access boolean array.
        """
        addrs = np.asarray(addrs, dtype=np.int64).ravel()
        n = addrs.size
        out_lat = np.empty(n, dtype=np.float64)
        out_lvl = np.empty(n, dtype=np.uint8)
        out_trans = np.zeros(n, dtype=np.float64)
        if n == 0:
            return TraceResult(out_lat, out_lvl, out_trans)
        lines = addrs // self.line_size
        pages = addrs // self._page_size
        writes = _per_access_write_flags(is_write, n)

        stats = self.stats
        lat_l1 = self._lat_l1
        fast_eligible = self.prefetcher is None
        # Reconstructing the interleaved victim stream is what the bulk
        # regime paths give up; recording runs keep per-access fidelity.
        bulk_ok = (
            self._bulk_paths and self.victim_log is None and self._monotone_ok
        )
        chunk = self._chunk
        pos = 0
        while pos < n:
            end = min(pos + chunk, n)
            if fast_eligible and not self._pf_pending:
                # Pending prefetches (e.g. DCBT installs) need per-access
                # credit checks, so they disable these paths until drained.
                if self._try_fast_chunk(lines, pages, writes, pos, end):
                    m = end - pos
                    out_lat[pos:end] = lat_l1
                    out_lvl[pos:end] = _L1_CODE
                    stats.accesses += m
                    stats.level_hits["L1"] += m
                    stats.total_latency_ns += m * lat_l1
                    pos = end
                    continue
                if bulk_ok and self._try_stream_chunk(
                    lines, pages, writes, pos, end, out_lat, out_lvl, out_trans
                ):
                    pos = end
                    continue
            elif (
                bulk_ok
                and (writes is None or not bool(np.any(writes[pos:end])))
                and self._try_prefetch_chunk(
                    lines, pages, pos, end, out_lat, out_lvl, out_trans
                )
            ):
                pos = end
                continue
            if bulk_ok:
                # Advance in short scalar steps so a regime change mid-
                # chunk (a stream confirming, a resident phase draining)
                # re-enters a bulk path quickly; chunk division never
                # changes results, only where screens re-run.
                end = min(pos + _SCALAR_STEP, end)
            self._run_scalar_chunk(
                lines, pages, writes, pos, end, out_lat, out_lvl, out_trans
            )
            pos = end
        return TraceResult(out_lat, out_lvl, out_trans)

    def access(self, addr: int, is_write: bool = False) -> AccessResult:
        """Simulate one demand access; returns its serviced latency."""
        line = addr // self.line_size
        trans_cycles = self.tlb.translate_page(addr // self._page_size)
        trans_ns = self.chip.cycles_to_ns(trans_cycles)
        latency, code = self._demand(line, is_write)
        level = LEVELS[code]
        if line in self._pf_pending:
            self._pf_pending.discard(line)
            if code != 5:
                self.stats.prefetch_useful += 1
        total = latency + trans_ns
        self.stats.accesses += 1
        self.stats.level_hits[level] += 1
        self.stats.total_latency_ns += total
        if is_write and self._counters:
            self.bank[pmu_events.PM_ST_REF] += 1
        if self.prefetcher is not None:
            for pf_addr in self.prefetcher.observe(line * self.line_size, is_write):
                self._prefetch_fill(pf_addr // self.line_size)
        return AccessResult(total, level, trans_cycles)

    def read(self, addr: int) -> AccessResult:
        return self.access(addr, is_write=False)

    def write(self, addr: int) -> AccessResult:
        return self.access(addr, is_write=True)

    def warm(self, addrs, is_write=False) -> None:
        """Run a trace without recording hierarchy statistics (warm-up).

        Cache/TLB/DRAM *state* (and their module stats) evolve exactly
        as in a recorded run; only this object's ``stats`` and ``bank``
        are shielded, mirroring the reference engine's warm-up.
        """
        saved, saved_bank = self.stats, self.bank
        self.stats = HierarchyStats()
        self.bank = CounterBank()
        try:
            self.access_trace(np.asarray(addrs, dtype=np.int64), is_write)
        finally:
            self.stats, self.bank = saved, saved_bank

    # -- resident fast path -------------------------------------------------
    def _try_fast_chunk(
        self, lines: np.ndarray, pages: np.ndarray, writes, pos: int, end: int
    ) -> bool:
        """Commit ``[pos, end)`` in bulk if it is an all-L1-hit chunk.

        Reads need every distinct line L1-resident and every distinct
        page ERAT+TLB-hot.  Writes additionally need their lines
        L2-resident: a store-through write hit propagates to the L2 as a
        write *hit* whose only effects are the hit count, the dirty bit
        and an MRU move — a bulk LRU permutation like the L1's, plus one
        ``PM_ST_REF`` increment for the chunk.
        """
        chunk_lines = lines[pos:end]
        uniq_lines = np.unique(chunk_lines)
        if uniq_lines.size > len(self.l1):
            return False
        # Materialize each screen's list once; the screens short-circuit
        # on the first absent entry.
        if not self.l1.contains_all(uniq_lines.tolist()):
            return False
        write_lines = None
        if writes is not None:
            chunk_writes = writes[pos:end]
            if chunk_writes.any():
                if not self._bulk_paths:
                    return False
                write_lines = chunk_lines[chunk_writes]
                if not self.l2.contains_all(np.unique(write_lines).tolist()):
                    return False
        uniq_pages = np.unique(pages[pos:end])
        if not self.tlb.pages_resident(uniq_pages.tolist()):
            return False
        m = end - pos
        self.l1.commit_read_hits(m, _last_occurrence_order(chunk_lines))
        if write_lines is not None:
            self.l2.commit_write_hits(
                int(write_lines.size), _last_occurrence_order(write_lines)
            )
            if self._counters:
                self.bank.inc(pmu_events.PM_ST_REF, int(write_lines.size))
        self.tlb.commit_resident_batch(m, _last_occurrence_order(pages[pos:end]))
        return True

    def _caches_max_line(self) -> int:
        """Watermark over every line ever installed in any level.

        A line above this was never resident anywhere, so a monotone
        chunk starting above it passes the all-absent screens in O(1) —
        the normal case for an advancing stream, where per-line
        membership probes would otherwise dominate the bulk commit.
        """
        wm = self.l1._max_line
        v = self.l2._max_line
        if v > wm:
            wm = v
        v = self.l3._max_line
        if v > wm:
            wm = v
        if self.l3_remote is not None:
            v = self.l3_remote._max_line
            if v > wm:
                wm = v
        v = self.l4._max_line
        if v > wm:
            wm = v
        return wm

    # -- streaming fast path -------------------------------------------------
    def _try_stream_chunk(
        self,
        lines: np.ndarray,
        pages: np.ndarray,
        writes,
        pos: int,
        end: int,
        out_lat: np.ndarray,
        out_lvl: np.ndarray,
        out_trans: np.ndarray,
    ) -> bool:
        """Commit a monotone all-miss (streaming) chunk in bulk.

        Screen: non-decreasing line numbers (so repeats of a line are
        consecutive) with every distinct line absent from every level.
        Each first touch then misses L1..L4 and fetches from DRAM; each
        repeat is an L1 hit (plus an L2 write-through hit when it
        writes).  Writes are exact because a line's repeats are
        consecutive: the first touch installs the L2 copy and nothing
        can evict it before its last repeat, so filling with the chunk's
        OR-reduced dirty bit and counting the repeat-write hits is the
        per-access outcome.  Per-site event order (ERAT reloads, DRAM
        accesses) is preserved, which keeps counter-keyed RAS draws
        bit-identical; with an injector attached
        :meth:`DRAMModel.access_batch` itself drops to its scalar loop.
        """
        chunk_lines = lines[pos:end]
        m = end - pos
        diffs = np.diff(chunk_lines)
        if diffs.size and int(diffs.min()) < 0:
            return False
        first = np.empty(m, dtype=bool)
        first[0] = True
        np.not_equal(diffs, 0, out=first[1:])
        ft_lines = chunk_lines[first]
        ft_list = ft_lines.tolist()
        l3r = self.l3_remote
        # Monotone chunk: if even its lowest line is above every
        # install watermark, absence everywhere is proven in O(1).
        if ft_list[0] <= self._caches_max_line() and not (
            self.l1.contains_none(ft_list)
            and self.l2.contains_none(ft_list)
            and self.l3.contains_none(ft_list)
            and (l3r is None or l3r.contains_none(ft_list))
            and self.l4.contains_none(ft_list)
        ):
            return False
        n_first = len(ft_list)
        if writes is not None:
            chunk_writes = writes[pos:end]
            n_writes = int(np.count_nonzero(chunk_writes))
            line_dirty = np.bitwise_or.reduceat(
                chunk_writes, np.flatnonzero(first)
            ).tolist()
            n_repeat_writes = n_writes - int(
                np.count_nonzero(chunk_writes & first)
            )
        else:
            n_writes = n_repeat_writes = 0
            line_dirty = None

        # All screens passed — commit.  DRAM first (ascending first-touch
        # order, the reference's per-site order), then outputs,
        # translation, and the state cascade.
        dram_ns = self.dram.access_batch(ft_lines * self.line_size)
        ft_pos = pos + np.flatnonzero(first)
        lat_l1 = self._lat_l1
        out_lat[pos:end] = lat_l1
        out_lvl[pos:end] = _L1_CODE
        out_lat[ft_pos] = dram_ns
        out_lvl[ft_pos] = _DRAM_CODE
        trans_ns = self._commit_chunk_translation(pages, pos, end, out_lat, out_trans)

        self._bulk_miss_cascade(ft_list, line_dirty)
        self.l1.commit_fill_stream(ft_lines)

        l1_stats = self.l1.stats
        l1_stats.misses += n_first
        l1_stats.hits += m - n_first
        self.l2.stats.misses += n_first
        self.l2.stats.hits += n_repeat_writes
        self.l3.stats.misses += n_first
        if l3r is not None:
            l3r.stats.misses += n_first
        self.l4.stats.misses += n_first
        stats = self.stats
        stats.accesses += m
        stats.level_hits["DRAM"] += n_first
        stats.level_hits["L1"] += m - n_first
        stats.total_latency_ns += (
            (m - n_first) * lat_l1 + float(dram_ns.sum()) + trans_ns
        )
        if self._counters:
            self.bank.inc(pmu_events.PM_ST_REF, n_writes)
        return True

    def _bulk_miss_cascade(self, miss_lines: List[int], dirty_flags) -> None:
        """Install distinct everywhere-absent lines demand-missed to DRAM.

        Replays the reference fill cascade per line — the L4 fill, then
        the L2 fill whose victim casts out to L3 -> L3R -> (dirty) L4 —
        with the common cases inlined as raw list splices: the missed
        line's own L2/L4 installs are proven absent (so the generic
        refill/membership checks are dead weight, and appending before
        trimming picks the same LRU victim as evict-then-append), and
        the L3/L3R steps inline the absent branch of
        :meth:`ArrayCache.fill` / :meth:`ArrayCache.insert_victim`,
        deferring to the methods only for the rare refill of a line
        still resident downstream.  The caller installs the L1 copies
        afterwards; L1 state is disjoint from this cascade.
        ``dirty_flags[k]`` is the store-through dirty bit the ``k``-th
        line's L2 copy is created with (``None`` = all reads).
        """
        l2 = self.l2
        l3 = self.l3
        l3r = self.l3_remote
        l4 = self.l4
        l2_tags, l2_dirty = l2._tags, l2._dirty
        l3_tags, l3_dirty = l3._tags, l3._dirty
        l4_tags, l4_dirty = l4._tags, l4._dirty
        l2_nsets, l2_assoc = l2._nsets, l2._assoc
        l3_nsets, l3_assoc = l3._nsets, l3._assoc
        l4_nsets, l4_assoc = l4._nsets, l4._assoc
        l2_store_in = l2._store_in
        l3_store_in = l3._store_in
        if l3r is not None:
            r_tags, r_dirty = l3r._tags, l3r._dirty
            r_nsets, r_assoc = l3r._nsets, l3r._assoc
            r_store_in = l3r._store_in
        l3_fill = l3.fill
        l4_fill = l4.fill
        counters = self._counters
        bank = self.bank
        l2_ev = l2_wb = l4_ev = l4_wb = 0
        l3_fills = l3_ev = l3_wb = 0
        r_fills = r_ev = r_wb = r_ins = 0
        for k, line in enumerate(miss_lines):
            # L4: memory-side cache fills on every DRAM read.
            s4 = line % l4_nsets
            row4 = l4_tags[s4]
            drow4 = l4_dirty[s4]
            row4.append(line)
            drow4.append(False)
            if len(row4) > l4_assoc:
                del row4[0]
                if drow4.pop(0):
                    l4_wb += 1
                l4_ev += 1
            # L2: install with the first touch's store-through dirty bit.
            s2 = line % l2_nsets
            row2 = l2_tags[s2]
            drow2 = l2_dirty[s2]
            row2.append(line)
            drow2.append(
                bool(dirty_flags[k]) if l2_store_in and dirty_flags is not None
                else False
            )
            if len(row2) <= l2_assoc:
                continue
            victim = row2.pop(0)
            victim_dirty = drow2.pop(0)
            l2_ev += 1
            if victim_dirty:
                l2_wb += 1
            # Castout to the local L3 slice (victim cache).
            s3 = victim % l3_nsets
            row3 = l3_tags[s3]
            if victim in row3:
                l3_fill(victim, victim_dirty)  # rare refill: generic path
                continue
            drow3 = l3_dirty[s3]
            l3_fills += 1
            evicted = None
            if len(row3) >= l3_assoc:
                evicted = row3.pop(0)
                evicted_dirty = drow3.pop(0)
                l3_ev += 1
                if evicted_dirty:
                    l3_wb += 1
            row3.append(victim)
            drow3.append(victim_dirty if l3_store_in else False)
            if evicted is None:
                continue
            # Lateral castout into the remote pool (or straight out).
            if l3r is not None:
                r_ins += 1
                sr = evicted % r_nsets
                rowr = r_tags[sr]
                if evicted in rowr:
                    # Rare refill of a pool-resident line: generic path,
                    # minus the double-counted victim_insert.
                    r_ins -= 1
                    l3r.insert_victim(evicted, evicted_dirty)
                    continue
                drowr = r_dirty[sr]
                r_fills += 1
                out = None
                if len(rowr) >= r_assoc:
                    out = rowr.pop(0)
                    out_dirty = drowr.pop(0)
                    r_ev += 1
                    if out_dirty:
                        r_wb += 1
                rowr.append(evicted)
                drowr.append(evicted_dirty if r_store_in else False)
                if out is None:
                    continue
                evicted, evicted_dirty = out, out_dirty
            if evicted_dirty:
                if counters:
                    bank[pmu_events.PM_MEM_CO] += 1
                l4_fill(evicted)
        n = len(miss_lines)
        if n:
            top = miss_lines[-1]  # ascending by construction
            if top > l2._max_line:
                l2._max_line = top
            if top > l4._max_line:
                l4._max_line = top
        l2.stats.fills += n
        l2.stats.evictions += l2_ev
        l2.stats.writebacks += l2_wb
        l3.stats.fills += l3_fills
        l3.stats.evictions += l3_ev
        l3.stats.writebacks += l3_wb
        if l3r is not None:
            l3r.stats.victim_inserts += r_ins
            l3r.stats.fills += r_fills
            l3r.stats.evictions += r_ev
            l3r.stats.writebacks += r_wb
        l4.stats.fills += n
        l4.stats.evictions += l4_ev
        l4.stats.writebacks += l4_wb

    def _commit_chunk_translation(
        self,
        pages: np.ndarray,
        pos: int,
        end: int,
        out_lat: np.ndarray,
        out_trans: np.ndarray,
    ) -> float:
        """Translate a monotone chunk's pages; returns the added ns.

        Per-run translation via :meth:`TLB.translate_monotone_chunk`;
        penalties land on each run's first access (repeats are exact
        zero-cost ERAT hits).  ``cycles_to_ns`` stays the scalar call so
        the float arithmetic is bit-identical to the reference engine.
        """
        starts, penalties = self.tlb.translate_monotone_chunk(pages[pos:end])
        total_ns = 0.0
        cycles_to_ns = self.chip.cycles_to_ns
        for j, cycles in enumerate(penalties.tolist()):
            if cycles:
                i = pos + int(starts[j])
                ns = cycles_to_ns(cycles)
                out_lat[i] += ns
                out_trans[i] = cycles
                total_ns += ns
        return total_ns

    # -- prefetcher steady-state fast path -----------------------------------
    def _try_prefetch_chunk(
        self,
        lines: np.ndarray,
        pages: np.ndarray,
        pos: int,
        end: int,
        out_lat: np.ndarray,
        out_lvl: np.ndarray,
        out_trans: np.ndarray,
    ) -> bool:
        """Commit a steady-state stream-prefetcher chunk in closed form.

        Screen: a read-only, strictly-ascending constant-stride chunk
        whose first line advances a confirmed
        :class:`~repro.prefetch.engine.StreamPrefetcher` stream (the
        first match in table order, with the same stride), while no
        other stream matches any chunk line.  The engine's evolution is
        then closed-form: every access advances the stream (confidence
        ramp doubling the depth to the DSCR distance —
        :func:`~repro.prefetch.engine.ramp_schedule` — then one issue
        per access), every demand line is an in-flight prefetch hitting
        the L2 with usefulness credit, and every issued target is
        DRAM-sourced.  Residency screens prove the in-flight lines are
        L2-resident (and stay so: a conservative set-collision bound on
        the stride rejects chunks where later fills could evict a
        pending line before its demand), and that every target is absent
        from all levels and from the pending set.
        """
        engine = _prefetch_engine()
        pf = self.prefetcher
        if type(pf) is not engine.StreamPrefetcher:
            return False
        max_distance = pf.max_distance
        if max_distance <= 0:
            return False
        m = end - pos
        if m < 2:
            return False
        chunk_lines = lines[pos:end]
        line0 = int(chunk_lines[0])
        stride = int(chunk_lines[1]) - line0
        if stride < 1:
            return False
        if not bool((np.diff(chunk_lines) == stride).all()):
            return False
        line_last = int(chunk_lines[-1])

        streams = pf._streams
        stream_key = stream = None
        for key, candidate in streams.items():
            if candidate.next_line == line0:
                stream_key, stream = key, candidate
                break
        if stream is None or stream.stride != stride:
            return False
        if stream.confidence < pf.confirm_accesses - 1:
            return False
        prefetched_up_to = stream.prefetched_up_to
        if (
            prefetched_up_to is None
            or prefetched_up_to < line0
            or (prefetched_up_to - line0) % stride
        ):
            return False
        n_pending_ahead = (prefetched_up_to - line0) // stride + 1
        if n_pending_ahead > max_distance + 1:
            return False
        for key, candidate in streams.items():
            if key != stream_key and (
                line0 <= candidate.next_line <= line_last
                and (candidate.next_line - line0) % stride == 0
            ):
                return False

        # In-flight lines must survive in the L2 until their demand.
        # Within any issue-to-demand window (<= max_distance accesses,
        # +ramp catch-up), same-set events number at most
        # 2*max_distance//period fills + max_distance//period demand
        # moves (period = set-collision period of the stride); reject
        # unless that provably leaves the pending line above LRU rank 0.
        l2 = self.l2
        period = l2._nsets // gcd(stride, l2._nsets)
        if 2 * ((2 * max_distance + 2) // period + 1) > l2._assoc - 2:
            return False

        ramp = engine.ramp_schedule(stream.depth, max_distance, m, pf.ramp_start)
        depth_final = ramp[-1]
        final_horizon = line_last + stride * depth_final
        n_targets = (
            (final_horizon - prefetched_up_to) // stride
            if final_horizon > prefetched_up_to
            else 0
        )

        l1 = self.l1
        l3 = self.l3
        l3r = self.l3_remote
        l4 = self.l4
        pending = self._pf_pending
        probe = line0
        for _ in range(min(n_pending_ahead, m)):
            if probe not in pending or probe in l1 or probe not in l2:
                return False
            probe += stride
        # Targets ascend from prefetched_up_to + stride: above every
        # install/pending watermark they are provably fresh in O(1)
        # (the steady-state case); otherwise probe them one by one.
        wm = self._caches_max_line()
        if self._pending_max > wm:
            wm = self._pending_max
        if prefetched_up_to + stride <= wm:
            for target in range(
                prefetched_up_to + stride, final_horizon + 1, stride
            ):
                if (
                    target in pending
                    or target in l1
                    or target in l2
                    or target in l3
                    or (l3r is not None and target in l3r)
                    or target in l4
                ):
                    return False

        # All screens passed — commit.  Per-access issue counts: access i
        # issues the targets between the running max of the horizons
        # before and after it (an already-covered horizon issues none
        # and leaves prefetched_up_to in place).
        depths = np.full(m, depth_final, dtype=np.int64)
        depths[: len(ramp)] = ramp
        horizons = chunk_lines + stride * depths
        covered = np.maximum.accumulate(
            np.concatenate((np.array([prefetched_up_to], dtype=np.int64), horizons))
        )
        issue_counts = ((covered[1:] - covered[:-1]) // stride).tolist()

        if n_targets:
            targets = np.arange(
                prefetched_up_to + stride, final_horizon + 1, stride, dtype=np.int64
            )
            self.dram.access_batch(targets * self.line_size)
            target_list = targets.tolist()
        else:
            target_list = []

        l2_tags, l2_dirty = l2._tags, l2._dirty
        l2_nsets, l2_assoc = l2._nsets, l2._assoc
        l3_tags, l3_dirty = l3._tags, l3._dirty
        l3_nsets, l3_assoc = l3._nsets, l3._assoc
        l4_tags, l4_dirty = l4._tags, l4._dirty
        l4_nsets, l4_assoc = l4._nsets, l4._assoc
        l3_store_in = l3._store_in
        if l3r is not None:
            r_tags, r_dirty = l3r._tags, l3r._dirty
            r_nsets, r_assoc = l3r._nsets, l3r._assoc
            r_store_in = l3r._store_in
        l3_fill = l3.fill
        l4_fill = l4.fill
        counters = self._counters
        bank = self.bank
        l2_ev = l2_wb = l4_ev = l4_wb = 0
        l3_fills = l3_ev = l3_wb = 0
        r_fills = r_ev = r_wb = r_ins = 0
        cursor = 0
        demand = line0
        for count in issue_counts:
            # Demand: L1 miss -> L2 hit (move to MRU) with useful credit.
            si = demand % l2_nsets
            row = l2_tags[si]
            i = row.index(demand)
            if i != len(row) - 1:
                del row[i]
                row.append(demand)
                drow = l2_dirty[si]
                drow.append(drow.pop(i))
            # This access's prefetch fills (ramp catch-up, then steady
            # one-per-access): DRAM -> L4 -> L2(clean), with the L2
            # victim's L3 -> L3R -> (dirty) L4 castout chain inlined as
            # in :meth:`_bulk_miss_cascade` (rare refills fall back to
            # the generic methods).
            for _ in range(count):
                target = target_list[cursor]
                cursor += 1
                s4 = target % l4_nsets
                row4 = l4_tags[s4]
                drow4 = l4_dirty[s4]
                row4.append(target)
                drow4.append(False)
                if len(row4) > l4_assoc:
                    del row4[0]
                    if drow4.pop(0):
                        l4_wb += 1
                    l4_ev += 1
                s2 = target % l2_nsets
                row2 = l2_tags[s2]
                drow2 = l2_dirty[s2]
                row2.append(target)
                drow2.append(False)
                if len(row2) <= l2_assoc:
                    continue
                victim = row2.pop(0)
                victim_dirty = drow2.pop(0)
                l2_ev += 1
                if victim_dirty:
                    l2_wb += 1
                s3 = victim % l3_nsets
                row3 = l3_tags[s3]
                if victim in row3:
                    l3_fill(victim, victim_dirty)  # rare refill
                    continue
                drow3 = l3_dirty[s3]
                l3_fills += 1
                evicted = None
                if len(row3) >= l3_assoc:
                    evicted = row3.pop(0)
                    evicted_dirty = drow3.pop(0)
                    l3_ev += 1
                    if evicted_dirty:
                        l3_wb += 1
                row3.append(victim)
                drow3.append(victim_dirty if l3_store_in else False)
                if evicted is None:
                    continue
                if l3r is not None:
                    r_ins += 1
                    sr = evicted % r_nsets
                    rowr = r_tags[sr]
                    if evicted in rowr:
                        r_ins -= 1
                        l3r.insert_victim(evicted, evicted_dirty)
                        continue
                    drowr = r_dirty[sr]
                    r_fills += 1
                    out = None
                    if len(rowr) >= r_assoc:
                        out = rowr.pop(0)
                        out_dirty = drowr.pop(0)
                        r_ev += 1
                        if out_dirty:
                            r_wb += 1
                    rowr.append(evicted)
                    drowr.append(evicted_dirty if r_store_in else False)
                    if out is None:
                        continue
                    evicted, evicted_dirty = out, out_dirty
                if evicted_dirty:
                    if counters:
                        bank[pmu_events.PM_MEM_CO] += 1
                    l4_fill(evicted)
            demand += stride
        # Pending-set evolution commutes to set algebra: every issued
        # target is added (and those demanded later in the chunk removed
        # again), every demand line is discarded at its access and — as
        # targets always exceed the running covered horizon — never
        # re-added afterwards.
        if n_targets:
            pending.update(target_list)
            if final_horizon > self._pending_max:
                self._pending_max = final_horizon
            if final_horizon > l2._max_line:
                l2._max_line = final_horizon
            if final_horizon > l4._max_line:
                l4._max_line = final_horizon
        pending.difference_update(range(line0, line_last + 1, stride))
        self.l1.commit_fill_stream(chunk_lines)

        l1.stats.misses += m
        l2.stats.hits += m
        l2.stats.fills += n_targets
        l2.stats.evictions += l2_ev
        l2.stats.writebacks += l2_wb
        l3.stats.fills += l3_fills
        l3.stats.evictions += l3_ev
        l3.stats.writebacks += l3_wb
        if l3r is not None:
            l3r.stats.victim_inserts += r_ins
            l3r.stats.fills += r_fills
            l3r.stats.evictions += r_ev
            l3r.stats.writebacks += r_wb
        l4.stats.fills += n_targets
        l4.stats.evictions += l4_ev
        l4.stats.writebacks += l4_wb
        lat_l2 = self._lat_l2
        out_lat[pos:end] = lat_l2
        out_lvl[pos:end] = _L2_CODE
        trans_ns = self._commit_chunk_translation(pages, pos, end, out_lat, out_trans)
        stats = self.stats
        stats.accesses += m
        stats.level_hits["L2"] += m
        stats.prefetch_issued += n_targets
        stats.prefetch_useful += m
        stats.total_latency_ns += m * lat_l2 + trans_ns
        # Engine-side bookkeeping: one matched advance per access.
        stream.next_line = line_last + stride
        stream.confidence += m
        stream.depth = depth_final
        if n_targets:
            stream.prefetched_up_to = final_horizon
            pf.bank.inc(pmu_events.PM_PREF_LINES_EMITTED, n_targets)
        streams.move_to_end(stream_key)
        return True

    # -- scalar fallback -----------------------------------------------------
    def _run_scalar_chunk(
        self,
        lines: np.ndarray,
        pages: np.ndarray,
        writes,
        pos: int,
        end: int,
        out_lat: np.ndarray,
        out_lvl: np.ndarray,
        out_trans: np.ndarray,
    ) -> None:
        line_list = lines[pos:end].tolist()
        page_list = pages[pos:end].tolist()
        write_list = writes[pos:end].tolist() if writes is not None else None
        stats = self.stats
        level_hits = stats.level_hits
        translate_page = self.tlb.translate_page
        tlb_stats = self.tlb.stats
        cycles_to_ns = self.chip.cycles_to_ns
        demand = self._demand
        prefetcher = self.prefetcher
        pf_pending = self._pf_pending
        line_size = self.line_size
        level_names = LEVELS
        hit_counts = [0, 0, 0, 0, 0, 0]
        total_ns = 0.0
        last_page = None
        lat_list: List[float] = []
        lvl_list: List[int] = []
        trans_list: List[float] = []
        for i, line in enumerate(line_list):
            page = page_list[i]
            if page == last_page:
                tlb_stats.accesses += 1
                trans_cy = 0.0
                trans_ns = 0.0
            else:
                trans_cy = translate_page(page)
                trans_ns = cycles_to_ns(trans_cy) if trans_cy else 0.0
                last_page = page
            w = write_list[i] if write_list is not None else False
            latency, code = demand(line, w)
            if pf_pending and line in pf_pending:
                pf_pending.discard(line)
                if code != 5:
                    stats.prefetch_useful += 1
            total = latency + trans_ns
            hit_counts[code] += 1
            total_ns += total
            lat_list.append(total)
            lvl_list.append(code)
            trans_list.append(trans_cy)
            if prefetcher is not None:
                for pf_addr in prefetcher.observe(line * line_size, w):
                    self._prefetch_fill(pf_addr // line_size)
        stats.accesses += end - pos
        stats.total_latency_ns += total_ns
        if writes is not None and self._counters:
            self.bank.inc(pmu_events.PM_ST_REF, int(np.count_nonzero(writes[pos:end])))
        for c, count in enumerate(hit_counts):
            if count:
                level_hits[level_names[c]] += count
        out_lat[pos:end] = lat_list
        out_lvl[pos:end] = lvl_list
        out_trans[pos:end] = trans_list

    # -- internals ------------------------------------------------------------
    def _demand(self, line: int, is_write: bool) -> Tuple[float, int]:
        # L1 probe.  Store-through: a write hit still forwards to L2.
        if self.l1.lookup(line, is_write):
            if is_write:
                self._l2_write_through(line)
            return self._lat_l1, 0
        # L2 probe.
        if self.l2.lookup(line, is_write):
            self._fill_l1(line)
            return self._lat_l2, 1
        # Local L3 slice: hit moves the line up (it stays in L3 too).
        if self.l3.lookup(line, is_write=False):
            self._fill_l2(line, dirty=is_write)
            self._fill_l1(line)
            return self._lat_l3, 2
        # Remote L3 pool (lateral NUCA lookup).
        if self._has_remote_l3 and self.l3_remote.lookup(line, is_write=False):
            dirty = self.l3_remote.is_dirty(line)
            self.l3_remote.invalidate(line)
            self._fill_l2(line, dirty=dirty or is_write)
            self._fill_l1(line)
            return self._lat_l3r, 3
        # L4 (memory-side).
        if self.l4.lookup(line, is_write=False):
            self._fill_l2(line, dirty=is_write)
            self._fill_l1(line)
            return self._lat_l4, 4
        # DRAM.
        dram_ns = self.dram.access(line * self.line_size)
        self._fill_l4(line)
        self._fill_l2(line, dirty=is_write)
        self._fill_l1(line)
        return dram_ns, 5

    def _prefetch_fill(self, line: int) -> None:
        """Install a prefetched line into the L2 (and L4 if DRAM-sourced)."""
        self.stats.prefetch_issued += 1
        if line in self.l1 or line in self.l2:
            return
        if not (line in self.l3 or (self._has_remote_l3 and line in self.l3_remote) or line in self.l4):
            self.dram.access(line * self.line_size)
            self._fill_l4(line)
        self._fill_l2(line, dirty=False)
        self._pf_pending.add(line)
        if line > self._pending_max:
            self._pending_max = line

    def _l2_write_through(self, line: int) -> None:
        """Propagate a store-through write from L1 into the L2."""
        if self.l2.lookup(line, is_write=True):
            return
        if self.l3.lookup(line, is_write=False):
            pass
        elif self._has_remote_l3 and self.l3_remote.lookup(line, is_write=False):
            self.l3_remote.invalidate(line)
        elif self.l4.lookup(line, is_write=False):
            pass
        else:
            self.dram.access(line * self.line_size)
            self._fill_l4(line)
        self._fill_l2(line, dirty=True)

    def _fill_l1(self, line: int) -> None:
        evicted = self.l1.fill(line)  # store-through: evictions are silent drops
        if evicted is not None and self.victim_log is not None:
            self.victim_log.append(("L1", evicted[0], evicted[1]))

    def _fill_l2(self, line: int, dirty: bool) -> None:
        evicted = self.l2.fill(line, dirty)
        if evicted is not None:
            ev_line, ev_dirty = evicted
            if self.victim_log is not None:
                self.victim_log.append(("L2", ev_line, ev_dirty))
            self._castout_to_l3(ev_line, ev_dirty)

    def _castout_to_l3(self, line: int, dirty: bool) -> None:
        evicted = self.l3.fill(line, dirty)
        if evicted is not None:
            ev_line, ev_dirty = evicted
            if self.victim_log is not None:
                self.victim_log.append(("L3", ev_line, ev_dirty))
            self._lateral_castout(ev_line, ev_dirty)

    def _lateral_castout(self, line: int, dirty: bool) -> None:
        if self._has_remote_l3:
            evicted = self.l3_remote.insert_victim(line, dirty)
            if evicted is not None and self.victim_log is not None:
                self.victim_log.append(("L3R", evicted[0], evicted[1]))
        else:
            evicted = (line, dirty)
        if evicted is not None:
            ev_line, ev_dirty = evicted
            if ev_dirty:
                if self._counters:
                    self.bank[pmu_events.PM_MEM_CO] += 1
                self._fill_l4(ev_line)

    def _fill_l4(self, line: int) -> None:
        evicted = self.l4.fill(line)
        if evicted is not None and self.victim_log is not None:
            self.victim_log.append(("L4", evicted[0], evicted[1]))


def _last_occurrence_order(values: np.ndarray) -> List[int]:
    """Distinct values ordered by ascending position of *last* occurrence.

    Replaying moves-to-MRU in this order compresses a chunk of LRU
    updates into one permutation with the same final state.
    """
    rev = values[::-1]
    uniq, first_in_rev = np.unique(rev, return_index=True)
    return uniq[np.argsort(-first_in_rev)].tolist()
