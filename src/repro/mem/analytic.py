"""Closed-form latency model of the POWER8 hierarchy.

Figure 2 of the paper sweeps working sets from kilobytes to gigabytes;
replaying that sweep through the trace-driven simulator would need 1e8+
simulated references, so the benchmark harness uses this closed-form
capacity model instead.  ``tests/mem/test_model_fidelity.py``
cross-validates it against :class:`repro.mem.hierarchy.MemoryHierarchy`
on configurations small enough to trace.

Model
-----
For a random pointer chase over a working set of ``W`` bytes, the
probability that a given reference is serviced by a level with
*cumulative* reach ``C`` is approximated by the resident fraction

    r(W, C) = 1                 if W <= C
              (C / W)**p        otherwise

``p`` controls the knee sharpness: core caches use ``p = 2`` (LRU with
physically-scattered pages), the memory-side L4 uses ``p = 1`` which
produces the paper's "gradual slope after the remote L3" (§III-A).

Address translation adds an ERAT/TLB penalty.  POWER8's first-level
ERAT holds translations at 64 KB granularity even for 16 MB pages, so
*both* page-size curves show the small 3 MB spike (48 entries x 64 KB)
while only the 64 KB-page curve pays second-level TLB misses beyond
128 MB — exactly the red/blue behaviour in Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..arch.specs import ChipSpec
from .hierarchy import DEFAULT_REMOTE_L3_EXTRA_NS

#: Knee sharpness of the core cache levels (L1/L2/L3/remote L3).
CORE_KNEE_EXPONENT = 2.0

#: Knee sharpness of the memory-side L4 (gradual, per Figure 2).
L4_KNEE_EXPONENT = 1.0

#: Largest page granule the first-level ERAT can hold (POWER8 fragments
#: 16 MB pages into 64 KB ERAT entries).
ERAT_GRANULE = 64 * 1024


def knee_pow(ratio, exponent: float):
    """``ratio ** exponent`` with the ``np.power`` ufunc's IEEE semantics.

    The common exponents 2.0 and 1.0 reduce to exact multiply/identity,
    and everything else goes through ``np.power``.  Python's ``**``
    differs from the ufunc by 1 ulp on ~0.1% of inputs, and the served
    oracle payloads (pinned byte for byte by
    ``tests/perfmodel/golden_payloads.json``) are defined by the ufunc,
    so keep this helper rather than reverting to ``**``.
    """
    if exponent == 2.0:
        return ratio * ratio
    if exponent == 1.0:
        return ratio
    return np.power(ratio, exponent)


def resident_fraction(working_set: float, reach: float, exponent: float) -> float:
    """Fraction of references hitting within cumulative capacity ``reach``."""
    if working_set <= 0:
        raise ValueError(f"working set must be positive, got {working_set}")
    if reach <= 0:
        return 0.0
    if working_set <= reach:
        return 1.0
    return float(knee_pow(reach / working_set, exponent))


@dataclass(frozen=True)
class LevelModel:
    name: str
    cumulative_reach: float  # bytes of data serviceable at or above this level
    latency_ns: float
    knee_exponent: float


class AnalyticHierarchy:
    """Closed-form mean-latency model for pointer-chase working-set sweeps."""

    def __init__(
        self,
        chip: ChipSpec,
        page_size: Optional[int] = None,
        remote_l3_extra_ns: Optional[float] = None,
        dram_latency_ns: Optional[float] = None,
    ) -> None:
        self.chip = chip
        self.page_size = chip.page_size if page_size is None else page_size
        if remote_l3_extra_ns is None:
            remote_l3_extra_ns = chip.remote_l3_extra_ns
        core_knee = chip.core_knee_exponent
        memside_knee = chip.memside_knee_exponent
        core = chip.core
        lat = chip.cycles_to_ns
        c_l1 = core.l1d.capacity
        c_l2 = core.l2.capacity
        c_l3 = c_l2 + core.l3_slice.capacity
        c_l3r = c_l2 + chip.l3_capacity  # all slices on the chip
        c_l4 = c_l3r + chip.l4_capacity
        self.dram_latency_ns = (
            chip.centaur.dram_latency_ns if dram_latency_ns is None else dram_latency_ns
        )
        self.levels = (
            LevelModel("L1", c_l1, lat(core.l1d.latency_cycles), core_knee),
            LevelModel("L2", c_l2, lat(core.l2.latency_cycles), core_knee),
            LevelModel("L3", c_l3, lat(core.l3_slice.latency_cycles), core_knee),
            LevelModel(
                "L3R",
                c_l3r,
                lat(core.l3_slice.latency_cycles) + remote_l3_extra_ns,
                core_knee,
            ),
            LevelModel("L4", c_l4, chip.centaur.l4_latency_ns, memside_knee),
        )

    # -- hit decomposition -----------------------------------------------------
    def level_fractions(self, working_set: float) -> Dict[str, float]:
        """Fraction of references serviced by each level (sums to 1)."""
        fractions: Dict[str, float] = {}
        below = 0.0
        for level in self.levels:
            r = resident_fraction(working_set, level.cumulative_reach, level.knee_exponent)
            r = max(r, below)  # reaches are nested; enforce monotonicity
            fractions[level.name] = r - below
            below = r
        fractions["DRAM"] = 1.0 - below
        return fractions

    # -- translation ------------------------------------------------------------
    def translation_penalty_ns(self, working_set: float) -> float:
        """Mean ERAT/TLB penalty per reference at this working-set size."""
        tlb = self.chip.core.tlb
        knee = self.chip.core_knee_exponent
        erat_granule = tlb.erat_granule_for(self.page_size)
        erat_reach = tlb.erat_entries * erat_granule
        tlb_reach = tlb.tlb_entries * self.page_size
        miss_erat = 1.0 - resident_fraction(working_set, erat_reach, knee)
        miss_tlb = 1.0 - resident_fraction(working_set, tlb_reach, knee)
        return self.chip.cycles_to_ns(
            miss_erat * tlb.erat_miss_penalty_cycles
            + miss_tlb * tlb.tlb_miss_penalty_cycles
        )

    def latency_breakdown_ns(self, working_set: float) -> Dict[str, float]:
        """Per-component latency contribution (ns); sums to ``latency_ns``.

        Keys are the level names plus ``DRAM`` and ``translation`` — the
        ECM-style decomposition the oracle reports alongside the
        headline number.
        """
        fractions = self.level_fractions(working_set)
        breakdown = {
            level.name: fractions[level.name] * level.latency_ns
            for level in self.levels
        }
        breakdown["DRAM"] = fractions["DRAM"] * self.dram_latency_ns
        breakdown["translation"] = self.translation_penalty_ns(working_set)
        return breakdown

    # -- headline number ----------------------------------------------------------
    def latency_ns(self, working_set: float) -> float:
        """Mean load-to-use latency for a random chase over ``working_set``."""
        fractions = self.level_fractions(working_set)
        latency = fractions["DRAM"] * self.dram_latency_ns
        for level in self.levels:
            latency += fractions[level.name] * level.latency_ns
        return latency + self.translation_penalty_ns(working_set)

    def curve(self, working_sets) -> list[float]:
        """Vectorised convenience: latency at each size in ``working_sets``."""
        return [self.latency_ns(float(w)) for w in working_sets]
