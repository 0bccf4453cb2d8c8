"""Wire protocol and request normalization for the serve daemon.

Framing is newline-delimited JSON: one request object per line in, one
response object per line out, in order.  A request is either an ``op``
message (``ping``, ``stats``, ``shutdown``) or a **run spec** — the
JSON description of one experiment:

``kind: "analytic"``
    ``request`` holds an :class:`~repro.perfmodel.oracle.OracleRequest`
    as a dict (the oracle's own schema); answered by the O(1) lane.
``kind: "experiment"``
    ``experiment`` names a registry id (``table3``, ``fig2``, ...);
    answered fail-soft through :func:`repro.bench.runner.run_with_policy`.
``kind: "trace"``
    ``working_set`` (+ optional ``page_size``, ``passes``, ``shards``,
    ``inject``, ``seed``) describes a pointer-chase measurement on the
    sharded trace engine
    (:func:`repro.parallel.runner.sharded_traced_latency`).

Every spec **normalizes** before anything else happens: defaults are
filled in, field types pinned, and the canonical form is hashed into
the same content-addressed key space the on-disk
:class:`~repro.parallel.cache.ResultCache` uses.  Two specs that differ
only in spelling (omitted defaults, key order) therefore share one
cache entry and one in-flight computation — normalization *is* the
dedup relation.  Unknown fields are rejected rather than ignored: a
typo that silently didn't change the key would silently dedup onto the
wrong result.

Payload projections (:func:`experiment_payload`, :func:`trace_payload`)
define what a lane serves, as a deterministic pure function of the
normalized spec — wall-clock fields are zeroed and numpy scalars
collapsed.  Each result is encoded to its wire bytes once, when it is
computed (:func:`encode_payload`); the LRU tier stores those bytes and
:func:`encode_message` splices them into every reply, so the cold,
in-flight and LRU-hot paths send the same bytes and the disk-hot path
the same values (the contract ``tests/serve/test_conformance.py`` pins
against direct in-process runs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..arch import registry as machine_registry
from ..arch.specs import SystemSpec
from ..parallel.cache import cache_key
from ..perfmodel.oracle import OracleRequest

#: Machine presets a request may name — the whole zoo.  Key material
#: uses the spec's repr, so names aliasing one spec (``e870`` and
#: ``power8``) share cache entries; normalization canonicalizes first
#: so the dedup happens before any lane runs.
MACHINES: Dict[str, Callable[[], SystemSpec]] = machine_registry.MACHINES


def get_system(machine: str) -> SystemSpec:
    """The (memoized) spec for a registered machine name.

    Specs are frozen dataclasses, so sharing one instance across
    requests is safe — and keeps spec construction off the per-request
    hot path.
    """
    return machine_registry.get_system(machine)

#: The run-spec kinds the daemon routes.
RUN_KINDS = ("analytic", "experiment", "trace")

#: Non-run operations.
OPS = ("run", "ping", "stats", "shutdown")

#: Fields every run spec may carry, plus the per-kind ones.
#: ``deadline_ms`` is transport-level — it bounds how long *this caller*
#: waits, never what is computed — so it is accepted everywhere and
#: excluded from the cache key.
_COMMON_FIELDS = {"op", "id", "kind", "machine", "seed", "deadline_ms"}
_KIND_FIELDS = {
    "analytic": {"request"},
    "experiment": {"experiment"},
    "trace": {"working_set", "page_size", "passes", "shards", "inject"},
}

#: Trace-lane defaults (mirror repro.bench.latency.traced_latency_ns).
TRACE_PAGE_SIZE = 64 * 1024
TRACE_PASSES = 3

#: Hard cap on one request line.  Far above any legitimate spec (the
#: largest is an oracle request, well under 4 KiB) yet small enough
#: that a misbehaving client cannot grow the daemon's read buffer
#: without bound.
MAX_LINE_BYTES = 64 * 1024

#: Structured error codes a response may carry (``error_response``).
ERROR_CODES = (
    "protocol",      # malformed / unknown / typo'd request
    "oversized",     # request line exceeded MAX_LINE_BYTES
    "busy",          # load shed: global in-flight bound reached
    "quota",         # load shed: this client's in-flight quota reached
    "deadline",      # the request's own deadline_ms expired
    "circuit_open",  # lane circuit breaker open, no fallback available
    "draining",      # daemon is shutting down, not accepting work
    "lane",          # the compute lane itself failed (fail-soft row)
    "internal",      # unexpected server-side exception
)


class ProtocolError(ValueError):
    """A request that cannot be normalized (malformed, unknown, typo'd)."""


class OversizedLineError(ProtocolError):
    """A request line exceeded :data:`MAX_LINE_BYTES`."""


# -- framing -----------------------------------------------------------------


def encode_message(message: Mapping[str, Any]) -> bytes:
    """One protocol message as a compact JSON line.

    A ``payload`` already encoded (``bytes``, from :func:`encode_payload`)
    is spliced in place, so the line is byte-identical to encoding the
    decoded payload inside the message.
    """
    payload = message.get("payload")
    if isinstance(payload, bytes):
        return _splice(message, payload)
    return _ENCODER.encode(message).encode("utf-8") + b"\n"


def encode_payload(payload: Any) -> bytes:
    """A payload's wire bytes: what :func:`encode_message` writes for it
    inside a response (same separators, same numpy collapse)."""
    return _ENCODER.encode(payload).encode("utf-8")


def _splice(message: Mapping[str, Any], payload: bytes) -> bytes:
    """Encode ``message`` with its pre-encoded ``payload`` bytes in place,
    keeping the message's key order."""
    head: Dict[str, Any] = {}
    tail: Dict[str, Any] = {}
    part = head
    for name, value in message.items():
        if name == "payload":
            part = tail
        else:
            part[name] = value
    out = _ENCODER.encode(head)[:-1] + (',"payload":' if head else '"payload":')
    end = "," + _ENCODER.encode(tail)[1:] if tail else "}"
    return out.encode("utf-8") + payload + end.encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one received line; raises :class:`ProtocolError` on junk."""
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"undecodable message: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    return message


class LineReader:
    """Bounded line framing over an :class:`asyncio.StreamReader`.

    ``StreamReader.readline`` raises an unrecoverable ``ValueError``
    once its internal buffer overflows; this reader owns its own buffer
    instead, so an oversized line is reported as a structured
    :class:`OversizedLineError` *and then skipped* — the stream resyncs
    at the next newline and the connection keeps serving.
    """

    def __init__(self, reader, limit: int = MAX_LINE_BYTES) -> None:
        self._reader = reader
        self._limit = int(limit)
        self._buffer = bytearray()
        self._eof = False

    async def _fill(self) -> bool:
        """Pull one chunk into the buffer; False at EOF."""
        if self._eof:
            return False
        chunk = await self._reader.read(65536)
        if not chunk:
            self._eof = True
            return False
        self._buffer.extend(chunk)
        return True

    async def readline(self) -> Optional[bytes]:
        """The next line without its newline, or None at EOF.

        Raises :class:`OversizedLineError` once per oversized line,
        after discarding it up to (and including) its terminator.
        """
        while True:
            idx = self._buffer.find(b"\n")
            if idx >= 0:
                if idx > self._limit:
                    del self._buffer[: idx + 1]
                    raise OversizedLineError(
                        f"request line exceeds {self._limit} bytes"
                    )
                line = bytes(self._buffer[:idx])
                del self._buffer[: idx + 1]
                return line
            if len(self._buffer) > self._limit:
                # No newline yet and already over budget: drain until
                # the terminator arrives, then surface one error.
                await self._discard_to_newline()
                raise OversizedLineError(
                    f"request line exceeds {self._limit} bytes"
                )
            if not await self._fill():
                if self._buffer:
                    line = bytes(self._buffer)
                    self._buffer.clear()
                    return line
                return None

    async def _discard_to_newline(self) -> None:
        while True:
            idx = self._buffer.find(b"\n")
            if idx >= 0:
                del self._buffer[: idx + 1]
                return
            self._buffer.clear()
            if not await self._fill():
                return


def _collapse(value: Any) -> Any:
    """JSON fallback: numpy scalars become their Python equivalents."""
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) in ((), None):
        return item()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


#: The wire encoder: compact separators, numpy scalars collapsed.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_collapse)


def canonical(payload: Any) -> Any:
    """One round-trip through JSON: exactly what a client decodes.

    Served payloads are defined *post*-serialization (tuples are lists,
    numpy scalars are numbers), so equality between the served and the
    direct in-process results is equality of this form.  The daemon
    itself encodes each payload straight to bytes
    (:func:`encode_payload`), which decode to this form.
    """
    return json.loads(json.dumps(payload, default=_collapse))


# -- normalization -----------------------------------------------------------


@dataclass(frozen=True)
class NormalizedRequest:
    """The canonical form of one run spec.

    ``workload_json`` is the filled-in, type-pinned description (a
    sorted-key compact JSON object) that, with the machine spec and
    seed, addresses the result: the daemon's cache key, dedup identity
    and compute instructions are all derived from it and nothing else.
    An analytic spec also carries its parsed ``oracle_request`` (the
    object ``workload_json`` was built from), so the lane need not
    parse it again; it takes no part in equality.
    """

    kind: str
    machine: str
    seed: int
    workload_json: str
    oracle_request: Optional[OracleRequest] = field(
        default=None, compare=False, repr=False
    )

    def workload_dict(self) -> Dict[str, Any]:
        return json.loads(self.workload_json)

    def system(self) -> SystemSpec:
        return get_system(self.machine)

    def key(self) -> str:
        """Content-addressed key, shared with the on-disk cache scheme."""
        return cache_key(
            machine=self.system(), workload=self.workload_json, seed=self.seed
        )


#: Key-material encoder: sorted keys, compact, numpy scalars collapsed.
_FREEZER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_collapse)


def _freeze(workload: Mapping[str, Any]) -> str:
    return _FREEZER.encode(workload)


#: :class:`OracleRequest` field names, in declaration order.
_ORACLE_FIELDS = tuple(f.name for f in fields(OracleRequest))


def _int_field(spec: Mapping[str, Any], name: str, default: int, minimum: int) -> int:
    value = spec.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ProtocolError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def request_deadline(spec: Mapping[str, Any]) -> Optional[float]:
    """The request's deadline in **seconds**, or None.

    ``deadline_ms`` is validated here but deliberately left out of the
    normalized workload: it bounds how long the requesting client
    waits, not what gets computed, so two requests differing only in
    deadline still share one cache entry and one in-flight run.
    """
    value = spec.get("deadline_ms")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"deadline_ms must be a number, got {value!r}")
    if value <= 0:
        raise ProtocolError(f"deadline_ms must be positive, got {value}")
    return float(value) / 1e3


def normalize_request(spec: Mapping[str, Any]) -> NormalizedRequest:
    """Validate one run spec and fill in every default.

    Raises :class:`ProtocolError` on unknown kinds/machines/fields and
    ill-typed values; the daemon converts that into a structured error
    response without touching any lane.
    """
    kind = spec.get("kind")
    if kind not in RUN_KINDS:
        raise ProtocolError(f"unknown run kind {kind!r}; known: {list(RUN_KINDS)}")
    machine = spec.get("machine", "e870")
    if not isinstance(machine, str):
        raise ProtocolError(f"machine must be a string, got {machine!r}")
    try:
        machine = machine_registry.canonical_name(machine)
    except KeyError:
        raise ProtocolError(
            f"unknown machine {machine!r}; known: {sorted(MACHINES)}"
        ) from None
    allowed = _COMMON_FIELDS | _KIND_FIELDS[kind]
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ProtocolError(
            f"unknown field(s) {unknown} for kind {kind!r}; "
            f"allowed: {sorted(allowed)}"
        )
    seed = _int_field(spec, "seed", 0, 0)

    oracle_request = None
    if kind == "analytic":
        request = spec.get("request")
        if not isinstance(request, Mapping):
            raise ProtocolError("analytic spec needs a 'request' object")
        try:
            oracle_request = OracleRequest.from_dict(dict(request))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad oracle request: {exc}") from None
        # The frozen request's own fields, dumped as they stand: tuples
        # encode as arrays, so this is the bytes of its to_dict() after
        # a JSON round-trip, without the asdict copy or the round-trip.
        request = {name: getattr(oracle_request, name) for name in _ORACLE_FIELDS}
        workload = {"serve": "analytic", "request": request}
    elif kind == "experiment":
        if seed != 0:
            raise ProtocolError(
                "experiment runs are seedless (registry experiments are "
                "deterministic); omit 'seed' or pass 0"
            )
        experiment = spec.get("experiment")
        from ..bench.runner import experiment_ids

        if experiment not in experiment_ids():
            raise ProtocolError(
                f"unknown experiment {experiment!r}; known: {experiment_ids()}"
            )
        workload = {"serve": "experiment", "experiment": experiment}
    else:  # trace
        working_set = spec.get("working_set")
        if isinstance(working_set, bool) or not isinstance(working_set, int):
            raise ProtocolError("trace spec needs an integer 'working_set' (bytes)")
        if working_set <= 0:
            raise ProtocolError(f"working_set must be positive, got {working_set}")
        inject = spec.get("inject")
        if inject is not None and not isinstance(inject, str):
            raise ProtocolError(f"inject must be a fault-plan string, got {inject!r}")
        workload = {
            "serve": "trace",
            "working_set": int(working_set),
            "page_size": _int_field(spec, "page_size", TRACE_PAGE_SIZE, 1),
            "passes": _int_field(spec, "passes", TRACE_PASSES, 2),
            "shards": _int_field(spec, "shards", 1, 1),
            "inject": inject,
        }
    return NormalizedRequest(
        kind=kind,
        machine=machine,
        seed=seed,
        workload_json=_freeze(workload),
        oracle_request=oracle_request,
    )


# -- payload projections -----------------------------------------------------


def experiment_payload(result) -> Dict[str, Any]:
    """The served form of an :class:`ExperimentResult`: its dict with
    wall-clock zeroed.

    ``elapsed_s`` is the one field of a registry result that is not a
    pure function of (machine, experiment id); serving it would make
    the cold and cached paths observably different, so the daemon
    serves the deterministic projection.
    """
    payload = result.to_dict()
    payload["elapsed_s"] = 0.0
    return canonical(payload)


def trace_payload(result) -> Dict[str, Any]:
    """The served summary of a :class:`ShardedTraceResult`.

    Per-access arrays stay server-side (a million-access trace is not a
    useful wire payload); what crosses the socket is the deterministic
    reduction — mean latency, the level-hit and latency-histogram
    shapes, the merged PMU bank and the RAS outcome — every field a
    pure function of (machine, workload, seed).
    """
    hist = result.latency_histogram()
    return canonical(
        {
            "accesses": int(result.trace.latency_ns.size),
            "mean_latency_ns": float(result.mean_latency_ns),
            "level_names": list(result.trace.level_names),
            "level_hits": {k: int(v) for k, v in result.stats.level_hits.items()},
            "latency_hist_counts": [int(c) for c in hist.counts],
            "counters": {k: int(v) for k, v in dict(result.bank).items()},
            "ras_events": len(result.ras_events),
            "ras_derived": result.ras_derived,
            "shards": int(result.shards),
            "seed": int(result.seed),
        }
    )


# -- response helpers --------------------------------------------------------


def ok_response(
    request_id: Any,
    *,
    key: Optional[str] = None,
    source: Optional[str] = None,
    payload: Any = None,
    **extra: Any,
) -> Dict[str, Any]:
    response: Dict[str, Any] = {"id": request_id, "ok": True}
    if key is not None:
        response["key"] = key
    if source is not None:
        response["source"] = source
    if payload is not None:
        response["payload"] = payload
    response.update(extra)
    return response


def error_response(
    request_id: Any,
    error: str,
    *,
    key: Optional[str] = None,
    code: Optional[str] = None,
    retry_after: Optional[float] = None,
) -> Dict[str, Any]:
    """A structured failure row.

    ``code`` (one of :data:`ERROR_CODES`) lets clients branch without
    parsing message text; ``retry_after`` (seconds) rides along on load
    sheds so backpressure carries its own pacing hint.
    """
    response: Dict[str, Any] = {"id": request_id, "ok": False, "error": error}
    if key is not None:
        response["key"] = key
    if code is not None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}; known: {ERROR_CODES}")
        response["code"] = code
    if retry_after is not None:
        response["retry_after"] = float(retry_after)
    return response
