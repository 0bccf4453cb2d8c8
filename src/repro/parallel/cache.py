"""Content-addressed on-disk cache for experiment results.

Sharded runs are deterministic (see :mod:`repro.parallel.runner`), so a
result is fully identified by *what was asked for*: the machine spec,
the workload description, the seed, and the code that produced it.  The
cache keys on a SHA-256 digest of exactly that content — no timestamps,
no hostnames — so a hit is a bit-for-bit stand-in for a re-run and the
CLI can skip the simulation entirely.

Invalidation is by construction: bumping ``repro.__version__`` (or
:data:`CACHE_VERSION` when only the cache format changes) changes every
key, and deleting the cache directory is always safe.  The default
location is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.

Integrity is verified on every read: each entry stores a SHA-256 digest
of its payload (:func:`payload_digest`), and :meth:`ResultCache.get`
recomputes it before serving.  Anything wrong with an entry — a
truncated or bit-flipped file, junk bytes, a JSON document that is not
an entry object, a digest mismatch — is **quarantined** (renamed aside
so the evidence survives and the bad bytes are never read again) and
reported as a miss, so a corrupted disk costs a recompute, never a
wrong result.  The serve daemon's chaos suite (``repro.serve.chaos``)
drives exactly these paths with deliberately corrupted payload files.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from .. import __version__
from ..arch.registry import spec_fingerprint

#: Bump when the stored payload format changes incompatibly.
#: 2: entries carry a payload SHA-256, verified on every read.
CACHE_VERSION = 2

_ENV_VAR = "REPRO_CACHE_DIR"

#: Process-wide monotonic sequence for temp-file names.  ``next()`` on a
#: C-implemented iterator is atomic, so concurrent writers of the same
#: key draw distinct suffixes without a lock.
_PUT_SEQ = itertools.count()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def cache_key(*, machine: object, workload: Union[Mapping[str, Any], str], seed: int = 0) -> str:
    """SHA-256 digest of the canonical key material.

    The material is ``{"cache_version", "code_version", "machine",
    "seed", "workload"}`` as sorted compact JSON, with the machine spec
    given by its fingerprint
    (:func:`repro.arch.registry.spec_fingerprint`, the spec's repr).
    ``workload`` is a JSON-able description of the run (experiment id,
    shard count, flags, ...), or that description already frozen as
    sorted compact JSON text, as the serve protocol holds it.
    Module-level so callers that only need the key — the serve daemon
    normalizing request specs — don't have to build a cache around a
    directory.
    """
    if not isinstance(workload, str):
        workload = json.dumps(dict(workload), sort_keys=True, separators=(",", ":"))
    digest = _key_head(spec_fingerprint(machine)).copy()
    digest.update(b',"seed":%d,"workload":%s}' % (int(seed), workload.encode("utf-8")))
    return digest.hexdigest()


@functools.lru_cache(maxsize=64)
def _key_head(fingerprint: str) -> "hashlib._Hash":
    """SHA-256 state over the part of the key material fixed per machine.

    Sorted keys put ``cache_version``, ``code_version`` and ``machine``
    before ``seed`` and ``workload``, so every key's JSON opens with the
    same head for one machine.  Hashing that head once leaves a key one
    ``copy`` and one ``update``; the cached state is shared, so callers
    update only their copy.
    """
    head = json.dumps(
        {"cache_version": CACHE_VERSION, "code_version": __version__, "machine": fingerprint},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(head[:-1].encode("utf-8"))


def payload_digest(payload: Any) -> str:
    """SHA-256 of a payload's canonical JSON form.

    Computed over ``json.dumps(..., sort_keys=True)`` so the digest is
    stable across a store/load round trip (tuples serialize as arrays,
    key order never matters).  Shared by the on-disk entries and the
    serve daemon's in-memory tier, so both tiers verify the same bytes.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of ``<digest>.json`` files, one per cached result.

    Each file stores the key material alongside the payload, so a cache
    directory is self-describing and individual entries can be audited
    (or deleted) by hand.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        # hits/misses are bumped under this lock so concurrent lookups
        # (the serve daemon runs them from worker threads) never lose
        # increments to a read-modify-write race.
        self._lock = threading.Lock()

    def key(
        self,
        *,
        machine: object,
        workload: Mapping[str, Any],
        seed: int = 0,
    ) -> str:
        """See :func:`cache_key` (pure function of the content)."""
        return cache_key(machine=machine, workload=workload, seed=seed)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key``, or ``None`` on a miss.

        The cache never raises on lookup — a re-run is always the
        fallback.  A missing file or a stale-format entry is a plain
        miss; anything *corrupt* — truncated or non-JSON bytes, a JSON
        document that is not an entry object, a payload whose stored
        SHA-256 no longer matches — is quarantined (renamed aside) and
        then reported as a miss, so the bad bytes are recomputed instead
        of re-read forever.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError:
            # Absent (normal miss) or unreadable (nothing to rename).
            with self._lock:
                self.misses += 1
            return None
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict):
                raise ValueError("cache entry is not a JSON object")
        except ValueError:
            # Half-written, truncated or bit-flipped into non-JSON: the
            # file is evidence of corruption, not a servable entry.
            self._quarantine(path)
            with self._lock:
                self.misses += 1
            return None
        if entry.get("cache_version") != CACHE_VERSION:
            with self._lock:
                self.misses += 1
            return None
        payload = entry.get("payload")
        if entry.get("sha256") != payload_digest(payload):
            # Verify-on-read: a flipped bit inside an otherwise valid
            # JSON document still never crosses this boundary.
            self._quarantine(path)
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return payload

    def _quarantine(self, path: Path) -> None:
        """Rename a corrupt entry aside (``*.quarantined``) and count it."""
        aside = path.parent / (
            f"{path.stem}.{os.getpid()}.{next(_PUT_SEQ)}.quarantined"
        )
        try:
            os.replace(path, aside)
        except OSError:
            return  # already replaced/removed by a concurrent writer
        with self._lock:
            self.quarantined += 1

    def put(self, key: str, payload: Mapping[str, Any]) -> Path:
        """Store ``payload`` under ``key``; returns the entry's path.

        Writes via a temp file + rename so concurrent readers never see
        a partial entry.  The temp name carries the pid *and* a
        process-wide monotonic sequence number: two threads (or asyncio
        worker tasks) of one process storing the same key get distinct
        temp files instead of clobbering each other mid-write, and each
        rename still lands atomically on the final path.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        entry = {
            "cache_version": CACHE_VERSION,
            "key": key,
            "payload": dict(payload),
            "sha256": payload_digest(dict(payload)),
        }
        tmp = path.parent / f"{key}.{os.getpid()}.{next(_PUT_SEQ)}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True)
        os.replace(tmp, path)
        return path
