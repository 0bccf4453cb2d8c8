"""The ``repro.serve`` asyncio daemon.

One long-running :class:`ReproServer` amortizes everything a CLI
invocation pays per query: interpreter start-up, spec construction,
model warm-up, and — through its two cache tiers — the computation
itself.  A request travels::

    spec --normalize--> key --LRU?--> disk?--> in-flight?--> admit?--> compute

* **LRU tier** (:class:`~repro.serve.lru.LRUTier`): bounded in-memory
  payload store; a hot repeat costs one dict lookup plus JSON framing.
  Payloads are digest-verified on every hit (see :mod:`.lru`).
* **Disk tier** (:class:`~repro.parallel.cache.ResultCache`): the
  existing content-addressed cache; survives restarts, verifies a
  SHA-256 per entry and quarantines anything corrupt as a miss.
* **In-flight dedup**: identical normalized specs arriving while the
  first is still computing await the *same* ``asyncio.Task``; the
  simulation runs exactly once.  Waiters await through
  ``asyncio.shield``, so a client that disconnects, times out, or hits
  its deadline never poisons the shared computation for the others.
* **Admission control**: cache hits and dedup joins are always served;
  *new* computations pass through a two-level admission gate
  (:class:`ResilienceConfig`).  The fast lane (analytic, O(1)) and the
  heavy lane (experiment/trace) have separate concurrency bounds, so
  analytic requests keep flowing while traces saturate their pool —
  the priority inversion a single queue would create cannot happen.
  Requests beyond a bound are shed with a structured ``busy``/``quota``
  error carrying ``retry_after``; the daemon never queues unboundedly.
* **Deadlines**: a request's ``deadline_ms`` bounds how long *that
  waiter* waits (``deadline`` error on expiry).  It never cancels the
  shared computation — the result still lands in the cache for the
  retry the error invites.
* **Circuit breakers**: one per lane kind.  ``breaker_threshold``
  consecutive lane failures trip it open; while open, cache hits still
  serve, trace requests degrade to an analytic approximation (marked
  ``degraded``, never cached) and other kinds shed with
  ``circuit_open``.  After ``breaker_cooldown_s`` one probe is allowed
  through (half-open); success closes the breaker, failure re-opens it.
* **Compute lanes**: ``analytic`` requests go to the
  :class:`~repro.perfmodel.oracle.AnalyticOracle`; ``experiment``
  requests run fail-soft through
  :func:`~repro.bench.runner.run_with_policy`; ``trace`` requests run
  the sharded engine under the same :class:`~repro.bench.runner.RunPolicy`
  retry/backoff semantics.  Lanes execute on *daemon* worker threads,
  so a wedged computation can slow the daemon but can never block
  interpreter exit (a hung non-daemon executor thread would).

Connections are handled concurrently, and within one connection up to
``client_window`` requests are *processed* concurrently while responses
are still written strictly in request order (clients may pipeline).
Any per-request failure — undecodable or oversized line, unknown spec,
lane exception after retries — becomes a structured error *response*;
a client disconnecting mid-response tears down only its own connection.
The daemon itself never dies of a bad request, a bad client, or a bad
disk — the chaos suite (:mod:`repro.serve.chaos`) exists to hold it to
that.

**Graceful drain**: SIGTERM or a ``shutdown`` request stops accepting
connections, lets in-flight work finish against ``drain_timeout_s``
(then cancels it), flushes final stats to stdout and exits 0.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..bench.runner import RunPolicy, run_with_policy
from ..parallel.cache import ResultCache
from ..parallel.runner import sharded_traced_latency
from .chaos import ChaosInjector
from .lru import DEFAULT_LRU_CAPACITY, LRUTier, TieredResultCache
from .protocol import (
    LineReader,
    NormalizedRequest,
    OversizedLineError,
    ProtocolError,
    canonical,
    decode_message,
    encode_message,
    error_response,
    experiment_payload,
    normalize_request,
    ok_response,
    request_deadline,
    trace_payload,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8737

#: ``retry_after`` hints attached to load sheds, by lane class.
RETRY_AFTER_S = {"fast": 0.05, "heavy": 0.25}


@dataclass(frozen=True)
class ResilienceConfig:
    """Admission, breaker and drain knobs (defaults sized so a few
    connections pipelining analytic requests — the repo benchmark's
    16-deep pipeline included — never shed).

    ``max_fast``/``max_heavy`` bound concurrent *computations* per lane
    class; cache hits and dedup joins are never counted against them.
    ``client_window`` bounds how many requests one connection processes
    at once (excess pipelined lines wait in the socket, which is
    ordinary TCP backpressure, not shedding); ``client_heavy_quota``
    bounds how many heavy computations one connection may have
    *started* concurrently before further starts shed with ``quota``.
    """

    max_fast: int = 256
    max_heavy: int = 8
    client_window: int = 32
    client_heavy_quota: int = 4
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 2.0
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        for name in ("max_fast", "max_heavy", "client_window",
                     "client_heavy_quota", "breaker_threshold"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.breaker_cooldown_s < 0 or self.drain_timeout_s < 0:
            raise ValueError("cooldown/drain timeouts must be >= 0")


class CircuitBreaker:
    """Closed → open after N consecutive failures → half-open on a timer.

    Lives entirely on the event loop (state changes happen in
    ``handle_request`` and compute-task callbacks), so it needs no lock.
    """

    def __init__(self, threshold: int, cooldown_s: float) -> None:
        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self.state = "closed"
        self.failures = 0
        self.trips = 0
        self._opened_at = 0.0

    def allow(self) -> bool:
        """May a new computation start?  Half-opens after the cooldown
        (one probe at a time)."""
        if self.state == "closed":
            return True
        if self.state == "open" and (
            time.monotonic() - self._opened_at >= self.cooldown_s
        ):
            self.state = "half_open"
            return True
        return False  # open and cooling, or a half-open probe in flight

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.threshold:
            if self.state != "open":
                self.trips += 1
            self.state = "open"
            self.failures = 0
            self._opened_at = time.monotonic()

    def to_dict(self) -> Dict[str, Any]:
        return {"state": self.state, "failures": self.failures, "trips": self.trips}


class _ClientState:
    """Per-connection admission context."""

    __slots__ = ("window", "heavy_active")

    def __init__(self, window: int) -> None:
        self.window = asyncio.Semaphore(window)
        self.heavy_active = 0


class ServeStats:
    """Monotonic request counters; every mutation happens under a lock.

    ``deduped`` counts requests that joined an in-flight computation,
    ``computed`` counts computations actually executed — the load
    generator's dedup ratio and LRU hit rate come straight from a
    snapshot of these.  The resilience counters follow the same rule:
    ``shed``/``quota_shed`` are load sheds (global bound / per-client
    quota), ``deadline_misses`` are waiters whose own ``deadline_ms``
    expired, ``degraded`` are analytic stand-ins served while a breaker
    was open, and ``disconnects`` are connections that died mid-stream
    without taking the daemon with them.
    """

    _FIELDS = (
        "requests",
        "ops",
        "ok",
        "errors",
        "lru_hits",
        "disk_hits",
        "computed",
        "deduped",
        "shed",
        "quota_shed",
        "deadline_misses",
        "circuit_rejects",
        "degraded",
        "oversized",
        "disconnects",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self._FIELDS:
            setattr(self, name, 0)

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def to_dict(self) -> Dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}


def _post_to_loop(
    loop: asyncio.AbstractEventLoop,
    future: "asyncio.Future[Any]",
    exc: Optional[BaseException],
    result: Any,
) -> None:
    """Complete a loop future from a lane thread, tolerating every race:
    a future already cancelled (deadline, drain) and a loop already
    closed (interpreter teardown with a wedged lane)."""

    def _set() -> None:
        if future.done():
            return
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(result)

    try:
        loop.call_soon_threadsafe(_set)
    except RuntimeError:
        pass


class ReproServer:
    """The serve daemon: normalize, admit, dedup, cache, compute, stream back."""

    def __init__(
        self,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        cache_dir: Optional[str] = None,
        lru_capacity: int = DEFAULT_LRU_CAPACITY,
        policy: Optional[RunPolicy] = None,
        workers: int = 1,
        resilience: Optional[ResilienceConfig] = None,
        chaos: Optional[ChaosInjector] = None,
    ) -> None:
        disk = ResultCache(cache_dir) if cache_dir is not None else None
        self.tier = TieredResultCache(LRUTier(lru_capacity), disk)
        self.policy = policy if policy is not None else RunPolicy()
        #: Pool width handed to the trace lane's shard pool.
        self.workers = int(workers)
        self.host = host
        self.port = port
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.chaos = chaos
        self.stats = ServeStats()
        self._inflight: Dict[str, asyncio.Task] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._active = {"fast": 0, "heavy": 0}
        self._connections: "set[asyncio.Task]" = set()
        self._oracles: Dict[str, Any] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown: Optional[asyncio.Event] = None
        self.draining = False
        self.started_at = time.monotonic()

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`close`), then
        drain gracefully."""
        if self._server is None:
            await self.start()
        assert self._shutdown is not None
        await self._shutdown.wait()
        await self.drain()
        await self.close()

    def request_shutdown(self) -> None:
        """Flag the daemon to drain and exit (signal-handler safe when
        called via ``loop.add_signal_handler``)."""
        self.draining = True
        if self._shutdown is not None:
            self._shutdown.set()

    async def drain(self) -> None:
        """Stop accepting, finish in-flight work against the drain
        timeout, then cancel whatever is left (a wedged lane must not
        hold the exit hostage)."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.resilience.drain_timeout_s
        for group in (lambda: list(self._inflight.values()),
                      lambda: list(self._connections)):
            while True:
                pending = [t for t in group() if not t.done()]
                remaining = deadline - loop.time()
                if not pending or remaining <= 0:
                    break
                await asyncio.wait(pending, timeout=remaining)
        leftovers = [
            t
            for t in list(self._inflight.values()) + list(self._connections)
            if not t.done()
        ]
        for task in leftovers:
            task.cancel()
        if leftovers:
            await asyncio.gather(*leftovers, return_exceptions=True)

    async def close(self) -> None:
        if self._shutdown is not None:
            self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: a reader pumping lines into per-request tasks
        plus this (writer) coroutine streaming responses back in order.

        Up to ``client_window`` requests process concurrently; the
        response for request N is always written before N+1's.  A dead
        socket — reset, broken pipe, chaos ``drop_conn`` — tears down
        exactly this connection: tasks here are shield *waiters*, so
        cancelling them never touches shared computations.
        """
        me = asyncio.current_task()
        if me is not None:
            self._connections.add(me)
        client = _ClientState(self.resilience.client_window)
        lines = LineReader(reader)
        ordered: "asyncio.Queue[Optional[Any]]" = asyncio.Queue()

        async def _serve_line(line: bytes) -> Dict[str, Any]:
            try:
                return await self.handle_line(line, client)
            finally:
                client.window.release()

        async def _read_loop() -> None:
            while True:
                try:
                    line = await lines.readline()
                except OversizedLineError as exc:
                    self.stats.bump("requests")
                    self.stats.bump("errors")
                    self.stats.bump("oversized")
                    await ordered.put(
                        error_response(None, str(exc), code="oversized")
                    )
                    continue
                if line is None:
                    break
                await client.window.acquire()
                await ordered.put(asyncio.ensure_future(_serve_line(line)))
            await ordered.put(None)

        pump = asyncio.ensure_future(_read_loop())
        dropped: "list[asyncio.Future]" = []
        try:
            while True:
                item = await ordered.get()
                if item is None:
                    break
                response = (await item) if asyncio.isfuture(item) else item
                if self.chaos is not None and self.chaos.on_response():
                    self.stats.bump("disconnects")
                    transport = writer.transport
                    if transport is not None:
                        transport.abort()
                    break
                writer.write(encode_message(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            self.stats.bump("disconnects")
        except asyncio.CancelledError:
            pass
        finally:
            pump.cancel()
            while not ordered.empty():
                item = ordered.get_nowait()
                if asyncio.isfuture(item):
                    item.cancel()
                    dropped.append(item)
            if dropped:
                await asyncio.gather(*dropped, return_exceptions=True)
            await asyncio.gather(pump, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            if me is not None:
                self._connections.discard(me)

    async def handle_line(
        self, line: bytes, client: Optional[_ClientState] = None
    ) -> Dict[str, Any]:
        try:
            message = decode_message(line)
        except ProtocolError as exc:
            self.stats.bump("requests")
            self.stats.bump("errors")
            return error_response(None, str(exc), code="protocol")
        return await self.handle_request(message, client)

    async def handle_request(
        self, message: Dict[str, Any], client: Optional[_ClientState] = None
    ) -> Dict[str, Any]:
        """Answer one decoded message (ops and run specs alike).

        Public so in-process callers (tests, the load generator's
        conformance pass) can exercise the full admission/dedup/cache
        path without a socket; ``client`` carries per-connection quota
        state and is None for such callers.
        """
        request_id = message.get("id")
        op = message.get("op", "run")
        # Ops count separately from run requests, so the hit/dedup
        # ratios the load generator derives from a stats snapshot are
        # exact fractions of the replayed run stream.
        if op == "ping":
            self.stats.bump("ops")
            return ok_response(request_id, op="ping")
        if op == "stats":
            self.stats.bump("ops")
            return ok_response(
                request_id,
                op="stats",
                stats=self.stats.to_dict(),
                tiers=self.tier.stats(),
                inflight=len(self._inflight),
                resilience={
                    "active": dict(self._active),
                    "draining": self.draining,
                    "breakers": {
                        kind: b.to_dict() for kind, b in self._breakers.items()
                    },
                },
                chaos=self.chaos.counts() if self.chaos is not None else None,
                uptime_s=time.monotonic() - self.started_at,
            )
        if op == "shutdown":
            self.stats.bump("ops")
            self.request_shutdown()
            return ok_response(request_id, op="shutdown")
        self.stats.bump("requests")
        if op != "run":
            self.stats.bump("errors")
            return error_response(request_id, f"unknown op {op!r}", code="protocol")
        if self.draining:
            self.stats.bump("errors")
            return error_response(
                request_id, "daemon is draining", code="draining"
            )
        try:
            deadline_s = request_deadline(message)
            normalized = normalize_request(message)
        except ProtocolError as exc:
            self.stats.bump("errors")
            return error_response(request_id, str(exc), code="protocol")
        key = normalized.key()
        started = time.monotonic()

        payload, tier = self.tier.get(key)
        if tier == "lru":
            self.stats.bump("lru_hits")
            self.stats.bump("ok")
            return ok_response(request_id, key=key, source="lru", payload=payload)
        if tier == "disk":
            self.stats.bump("disk_hits")
            self.stats.bump("ok")
            return ok_response(request_id, key=key, source="disk", payload=payload)

        lane_class = "fast" if normalized.kind == "analytic" else "heavy"
        counted_heavy = False
        task = self._inflight.get(key)
        if task is not None:
            self.stats.bump("deduped")
            source = "inflight"
        else:
            # Admission and breaker checks apply only here: hits and
            # joins cost the daemon nothing it hasn't already paid for.
            breaker = self._breaker(normalized.kind)
            if not breaker.allow():
                return self._circuit_open_response(request_id, normalized, key)
            if self._active[lane_class] >= getattr(
                self.resilience, f"max_{lane_class}"
            ):
                self.stats.bump("shed")
                self.stats.bump("errors")
                return error_response(
                    request_id,
                    f"{lane_class} lane at capacity "
                    f"({self._active[lane_class]} in flight)",
                    key=key,
                    code="busy",
                    retry_after=RETRY_AFTER_S[lane_class],
                )
            if (
                client is not None
                and lane_class == "heavy"
                and client.heavy_active >= self.resilience.client_heavy_quota
            ):
                self.stats.bump("quota_shed")
                self.stats.bump("errors")
                return error_response(
                    request_id,
                    f"per-client heavy quota reached "
                    f"({client.heavy_active} in flight)",
                    key=key,
                    code="quota",
                    retry_after=RETRY_AFTER_S["heavy"],
                )
            task = asyncio.ensure_future(
                self._compute_and_store(normalized, key, deadline_s)
            )
            self._inflight[key] = task
            self._active[lane_class] += 1
            if client is not None and lane_class == "heavy":
                client.heavy_active += 1
                counted_heavy = True
            task.add_done_callback(
                lambda t, k=key, lc=lane_class: self._computation_done(t, k, lc)
            )
            source = "computed"
        try:
            # shield: cancelling THIS waiter (client gone, deadline hit)
            # must not cancel the shared computation other waiters need.
            if deadline_s is not None:
                remaining = deadline_s - (time.monotonic() - started)
                if remaining <= 0:
                    raise asyncio.TimeoutError
                payload = await asyncio.wait_for(asyncio.shield(task), remaining)
            else:
                payload = await asyncio.shield(task)
        except asyncio.TimeoutError:
            self.stats.bump("deadline_misses")
            self.stats.bump("errors")
            return error_response(
                request_id,
                f"deadline_ms expired after {deadline_s * 1e3:.0f} ms",
                key=key,
                code="deadline",
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — fail-soft boundary
            self.stats.bump("errors")
            return error_response(
                request_id, f"{type(exc).__name__}: {exc}", key=key, code="lane"
            )
        finally:
            if counted_heavy and client is not None:
                client.heavy_active -= 1
        self.stats.bump("ok")
        return ok_response(request_id, key=key, source=source, payload=payload)

    def _computation_done(self, task: asyncio.Task, key: str, lane_class: str) -> None:
        self._inflight.pop(key, None)
        self._active[lane_class] -= 1
        if not task.cancelled():
            # Mark any exception retrieved: with every waiter gone
            # (deadlines, disconnects) nobody else will look at it.
            task.exception()

    def _breaker(self, kind: str) -> CircuitBreaker:
        if kind not in self._breakers:
            self._breakers[kind] = CircuitBreaker(
                self.resilience.breaker_threshold,
                self.resilience.breaker_cooldown_s,
            )
        return self._breakers[kind]

    def _circuit_open_response(
        self, request_id: Any, normalized: NormalizedRequest, key: str
    ) -> Dict[str, Any]:
        """A breaker-open answer: degrade trace requests to the analytic
        model (clearly marked, never cached), shed everything else."""
        if normalized.kind == "trace":
            try:
                payload = self._degraded_payload(normalized)
            except Exception:  # noqa: BLE001 — fall through to the shed
                payload = None
            if payload is not None:
                self.stats.bump("degraded")
                self.stats.bump("ok")
                return ok_response(
                    request_id,
                    key=key,
                    source="degraded",
                    payload=payload,
                    degraded=True,
                )
        self.stats.bump("circuit_rejects")
        self.stats.bump("errors")
        return error_response(
            request_id,
            f"{normalized.kind} lane circuit breaker is open",
            key=key,
            code="circuit_open",
            retry_after=self.resilience.breaker_cooldown_s,
        )

    def _degraded_payload(self, normalized: NormalizedRequest) -> Dict[str, Any]:
        """The analytic stand-in for a trace request while its lane's
        breaker is open: the oracle's O(1) chase prediction for the same
        working set — availability-preserving, explicitly not the
        bit-identical simulated result."""
        from ..perfmodel.oracle import OracleRequest

        workload = normalized.workload_dict()
        result = self._oracle(normalized.machine).predict(
            OracleRequest(
                kind="chase",
                working_set=workload["working_set"],
                page_size=workload["page_size"],
            )
        )
        return canonical(result.to_dict())

    # -- compute lanes -------------------------------------------------------
    async def _compute_and_store(
        self,
        normalized: NormalizedRequest,
        key: str,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        breaker = self._breaker(normalized.kind)
        try:
            payload, cacheable = await self._in_lane(normalized, deadline_s)
        except Exception:
            breaker.record_failure()
            raise
        breaker.record_success()
        self.stats.bump("computed")
        if cacheable:
            path = self.tier.put(key, payload)
            if self.chaos is not None and path is not None:
                self.chaos.on_disk_put(path)
        return payload

    async def _in_lane(
        self, normalized: NormalizedRequest, deadline_s: Optional[float]
    ) -> Tuple[Dict[str, Any], bool]:
        """Run :meth:`_compute` on a fresh *daemon* thread.

        ``asyncio.to_thread`` would borrow a non-daemon executor thread,
        and a chaos-hung lane in one of those blocks interpreter exit
        (``shutdown_default_executor`` joins it indefinitely).  A daemon
        thread completing a loop future via ``call_soon_threadsafe``
        gives the same await semantics without the hostage situation.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Tuple[Dict[str, Any], bool]]" = loop.create_future()

        def _work() -> None:
            try:
                if self.chaos is not None:
                    self.chaos.on_lane(normalized.kind, deadline_s)
                result = self._compute(normalized)
            except BaseException as exc:  # noqa: BLE001 — posted to the loop
                _post_to_loop(loop, future, exc, None)
            else:
                _post_to_loop(loop, future, None, result)

        threading.Thread(target=_work, name="repro-serve-lane", daemon=True).start()
        return await future

    def _compute(self, normalized: NormalizedRequest) -> Tuple[Dict[str, Any], bool]:
        """Run one lane synchronously; returns ``(payload, cacheable)``.

        Tests monkeypatch this with a spy to count executions — the
        dedup contract is "``_compute`` runs once per distinct key".
        """
        workload = normalized.workload_dict()
        if normalized.kind == "analytic":
            from ..perfmodel.oracle import OracleRequest

            oracle = self._oracle(normalized.machine)
            result = oracle.predict(OracleRequest.from_dict(workload["request"]))
            return canonical(result.to_dict()), True
        if normalized.kind == "experiment":
            result = run_with_policy(
                workload["experiment"], self._system(normalized.machine), self.policy
            )
            # Error rows are served (fail-soft) but never cached: the
            # next request retries instead of replaying the failure.
            return experiment_payload(result), result.ok
        return self._compute_trace(normalized, workload), True

    def _compute_trace(
        self, normalized: NormalizedRequest, workload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """The trace lane, retried under the daemon's :class:`RunPolicy`."""
        policy = self.policy
        last_exc: Optional[BaseException] = None
        for attempt in range(1, policy.retries + 2):
            try:
                _, result = sharded_traced_latency(
                    self._system(normalized.machine),
                    workload["working_set"],
                    page_size=workload["page_size"],
                    passes=workload["passes"],
                    seed=normalized.seed,
                    shards=workload["shards"],
                    workers=self.workers,
                    inject=workload["inject"],
                )
                return trace_payload(result)
            except Exception as exc:  # noqa: BLE001 — retried, then surfaced
                last_exc = exc
                if attempt <= policy.retries:
                    time.sleep(policy.backoff_after(attempt))
        assert last_exc is not None
        raise last_exc

    def _system(self, machine: str):
        from .protocol import get_system

        return get_system(machine)

    def _oracle(self, machine: str):
        if machine not in self._oracles:
            from ..perfmodel.oracle import AnalyticOracle

            self._oracles[machine] = AnalyticOracle(self._system(machine))
        return self._oracles[machine]


class ServerThread:
    """A running daemon on a background thread (its own event loop).

    Synchronous code — the pytest suites — needs a live server next to
    blocking client code.  Use as a context manager::

        with ServerThread(cache_dir=str(tmp)) as st:
            client = ServeClient(st.host, st.port)
    """

    def __init__(self, **server_kwargs: Any) -> None:
        self.server = ReproServer(**server_kwargs)
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 — surfaced in start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.close())
            # Let in-flight work finish briefly, then cancel: a wedged
            # chaos lane must not leak the loop past the test.
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            if pending:
                loop.run_until_complete(
                    asyncio.wait(pending, timeout=5)
                )
                for task in pending:
                    if not task.done():
                        task.cancel()
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError("serve daemon failed to start") from self._startup_error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
