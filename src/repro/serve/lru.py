"""Bounded in-memory LRU tier above the on-disk result cache.

The on-disk :class:`~repro.parallel.cache.ResultCache` makes a repeated
experiment free of *computation*; this tier also makes it free of
*serialization* — a hot entry is the payload's encoded wire bytes,
spliced into the reply without touching the filesystem or re-encoding.
The tier is a transparent overlay: any sequence of ``get``/``put``
operations observes, once decoded, exactly the payloads the on-disk
cache alone would serve (the Hypothesis property
``tests/serve/test_lru.py`` pins), it only changes where they come
from.  Eviction is strict least-recently-used over both reads and
writes, and the tier never holds more than ``capacity`` entries.

All operations take an internal lock: the serve daemon touches the tier
from compute-lane workers, and the load generator hammers it from
client threads, so the counters and the recency order must not race.

Integrity: a hot entry is ``bytes``, which nothing can mutate, so the
tier serves it as stored.  The disk tier keeps its own verify-on-read
(a SHA-256 per entry, corrupt entries quarantined as misses), so a
corrupt payload never crosses the serving boundary from either tier.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..parallel.cache import ResultCache
from ..parallel.cache import payload_digest  # noqa: F401 - servebench/launcher.py wraps this name
from .protocol import encode_payload

#: Default entry bound for the daemon's hot tier.
DEFAULT_LRU_CAPACITY = 4096


class LRUTier:
    """A thread-safe, bounded, least-recently-used key/value store."""

    def __init__(self, capacity: int = DEFAULT_LRU_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._data: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[Any]:
        """The stored value, freshened to most-recently-used; None on miss."""
        with self._lock:
            if key not in self._data:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]

    def put(self, key: str, value: Any) -> None:
        """Insert/overwrite ``key`` as most-recently-used, evicting LRU."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: str) -> bool:
        """Membership without touching the recency order."""
        with self._lock:
            return key in self._data

    def keys(self) -> Tuple[str, ...]:
        """Snapshot of stored keys, least- to most-recently-used."""
        with self._lock:
            return tuple(self._data)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._data),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class TieredResultCache:
    """LRU tier composed over an optional on-disk :class:`ResultCache`.

    Payloads go in and come out as encoded wire bytes
    (:func:`~repro.serve.protocol.encode_payload`).  ``get`` answers
    from memory when it can, falls through to disk on an LRU miss
    (encoding the entry once and promoting it back into memory), and
    reports which tier answered; ``put`` writes through to both tiers,
    the disk entry holding the decoded payload.  With no disk cache
    configured the daemon still gets its hot tier — results just don't
    survive a restart.
    """

    def __init__(
        self,
        lru: Optional[LRUTier] = None,
        disk: Optional[ResultCache] = None,
    ) -> None:
        self.lru = lru if lru is not None else LRUTier()
        self.disk = disk

    def get(self, key: str) -> Tuple[Optional[bytes], Optional[str]]:
        """``(payload bytes, tier)`` where tier is ``"lru"``, ``"disk"`` or None."""
        payload = self.lru.get(key)
        if payload is not None:
            return payload, "lru"
        if self.disk is not None:
            entry = self.disk.get(key)
            if entry is not None:
                payload = encode_payload(entry)
                self.lru.put(key, payload)
                return payload, "disk"
        return None, None

    def put(self, key: str, payload: bytes) -> Optional[Path]:
        """Write through both tiers; returns the on-disk entry path (or
        None without a disk tier) so callers — the chaos injector's
        ``corrupt_disk`` site — can address the file just written."""
        self.lru.put(key, payload)
        if self.disk is not None:
            return self.disk.put(key, json.loads(payload))
        return None

    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"lru": self.lru.stats()}
        if self.disk is not None:
            out["disk"] = {
                "hits": self.disk.hits,
                "misses": self.disk.misses,
                "quarantined": self.disk.quarantined,
            }
        return out
