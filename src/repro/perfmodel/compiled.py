"""Compiled machine models: spec-derived state, built once per machine.

A :class:`CompiledMachineModel` holds what the analytic oracle derives
from a :class:`SystemSpec` and reuses across requests: the per-page-size
capacity hierarchies, the random-access (Little's-law) model, the
roofline and the roofline machine model.  Each is a pure function of
the spec, built on first use and memoized.

Models live in a bounded process-wide registry keyed by the spec
fingerprint (:func:`repro.arch.registry.spec_fingerprint`) — so a
long-running serve daemon answering for the whole machine zoo resolves
each machine to its compiled state exactly once, and aliases
(``power8`` vs ``e870``) share one entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import cached_property
from typing import Optional, Union

from ..arch.registry import canonical_name, get_system, spec_fingerprint
from ..arch.specs import SystemSpec
from ..mem.analytic import AnalyticHierarchy
from ..mem.dram import DRAMModel
from ..roofline.model import Roofline
from .kernel_time import MachineModel
from .littles_law import RandomAccessModel

#: Bound on the process-wide compiled-model registry.
MAX_COMPILED_MODELS = 16

#: Bound on the per-model hierarchy cache (distinct page sizes seen).
MAX_HIERARCHIES = 8


class BoundedCache:
    """Tiny thread-safe LRU mapping — the bound every long-lived cache needs."""

    def __init__(self, max_entries: int) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key):
        with self._lock:
            if key not in self._data:
                return None
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)

    def get_or_build(self, key, build):
        """Return the cached value, building (outside the lock) on a miss.

        Concurrent builders may race; the last write wins, which is fine
        because every build is a pure function of the key.
        """
        value = self.get(key)
        if value is None:
            value = build()
            self.put(key, value)
        return value


class CompiledMachineModel:
    """One machine's precomputed analytic state (treat as immutable).

    Construction is cheap; the sub-models (per-page hierarchies, the
    Little's-law model, the roofline and its machine model) are built
    on first use and memoized.  Internal caches are bounded, so a
    daemon holding compiled models for the whole zoo has a hard memory
    ceiling regardless of traffic shape.
    """

    def __init__(self, system: SystemSpec, dram: Optional[DRAMModel] = None) -> None:
        self.system = system
        self.chip = system.chip
        self.dram = dram if dram is not None else DRAMModel()
        self._hierarchies = BoundedCache(MAX_HIERARCHIES)

    def hierarchy(self, page_size: int) -> AnalyticHierarchy:
        """The per-page-size capacity model, from a bounded LRU."""
        return self._hierarchies.get_or_build(
            page_size, lambda: AnalyticHierarchy(self.chip, page_size=page_size)
        )

    @cached_property
    def random_access(self) -> RandomAccessModel:
        return RandomAccessModel(self.system)

    @cached_property
    def roofline(self) -> Roofline:
        return Roofline(self.system)

    @cached_property
    def machine_model(self) -> MachineModel:
        return MachineModel(self.system)


_REGISTRY = BoundedCache(MAX_COMPILED_MODELS)


def compiled_model(
    system: Union[SystemSpec, str], dram: Optional[DRAMModel] = None
) -> CompiledMachineModel:
    """The registry entry for a machine (built on first use, LRU-bounded).

    Accepts a spec or any registry name/alias.  A custom ``dram``
    bypasses the registry — those models are private to their oracle,
    since the model carries the DRAM the oracle's trace twins read.
    """
    if isinstance(system, str):
        system = get_system(canonical_name(system))
    if dram is not None:
        return CompiledMachineModel(system, dram)
    # Aliases resolve to the same spec object, so the fingerprint
    # collapses every alias onto one compiled entry, while a mutated or
    # re-registered spec under an old name never aliases stale state.
    return _REGISTRY.get_or_build(
        spec_fingerprint(system), lambda: CompiledMachineModel(system)
    )


def compiled_registry_len() -> int:
    """How many compiled models the process currently holds (tests)."""
    return len(_REGISTRY)
