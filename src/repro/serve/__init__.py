"""Simulation-as-a-service: the ``repro.serve`` package.

A persistent asyncio front-end over the layers the earlier PRs built —
the O(1) :class:`~repro.perfmodel.oracle.AnalyticOracle`, the sharded
:class:`~repro.parallel.pool.ShardPool` trace engine, the fail-soft
experiment registry and the content-addressed
:class:`~repro.parallel.cache.ResultCache` — so repeated questions
about the modelled machine cost a cache lookup instead of a process.

Layers (one module each):

* :mod:`~repro.serve.protocol` — NDJSON framing, request
  normalization → cache key, served-payload projections;
* :mod:`~repro.serve.lru` — the bounded in-memory LRU tier above the
  on-disk cache;
* :mod:`~repro.serve.daemon` — the server: dedup of in-flight
  identical requests, tiered lookup, compute lanes;
* :mod:`~repro.serve.client` — blocking client library;
* :mod:`~repro.serve.loadgen` — the chaos load harness
  (``python -m repro.bench perf chaos``).

Everything is conformance-first: ``tests/serve/`` gates every lane on
bit-identity with the direct in-process path (cold, LRU-hot and
disk-hot), and the repo benchmark (``servebench/``) refuses to report
throughput unless sampled replies match direct runs byte for byte.

Run a daemon with ``python -m repro.serve``; benchmark one with
``python3 servebench/run.py``.
"""

from .chaos import (
    ChaosClause,
    ChaosError,
    ChaosInjector,
    ChaosPlan,
    build_chaos,
)
from .client import ServeClient, ServeError, ServeTimeout
from .daemon import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    CircuitBreaker,
    ReproServer,
    ResilienceConfig,
    ServeStats,
    ServerThread,
)
from .lru import DEFAULT_LRU_CAPACITY, LRUTier, TieredResultCache
from .protocol import (
    ERROR_CODES,
    MACHINES,
    MAX_LINE_BYTES,
    LineReader,
    NormalizedRequest,
    OversizedLineError,
    ProtocolError,
    canonical,
    decode_message,
    encode_message,
    error_response,
    experiment_payload,
    get_system,
    normalize_request,
    ok_response,
    request_deadline,
    trace_payload,
)

__all__ = [
    "ChaosClause",
    "ChaosError",
    "ChaosInjector",
    "ChaosPlan",
    "CircuitBreaker",
    "DEFAULT_HOST",
    "DEFAULT_LRU_CAPACITY",
    "DEFAULT_PORT",
    "ERROR_CODES",
    "LRUTier",
    "LineReader",
    "MACHINES",
    "MAX_LINE_BYTES",
    "NormalizedRequest",
    "OversizedLineError",
    "ProtocolError",
    "ReproServer",
    "ResilienceConfig",
    "ServeClient",
    "ServeError",
    "ServeStats",
    "ServeTimeout",
    "ServerThread",
    "TieredResultCache",
    "build_chaos",
    "canonical",
    "decode_message",
    "encode_message",
    "error_response",
    "experiment_payload",
    "get_system",
    "normalize_request",
    "ok_response",
    "request_deadline",
    "trace_payload",
]
