"""In-flight dedup: identical concurrent requests compute exactly once.

Most tests drive :meth:`ReproServer.handle_request` directly (no
socket) with ``server._compute`` replaced by a spy that counts
executions and blocks on an event, so the tests control exactly when
the "simulation" finishes.  The contracts:

* N identical concurrent requests → one ``_compute`` execution, N
  identical payloads, ``stats.deduped == N - 1``;
* requests differing only in seed do **not** dedup — one execution
  each;
* cancelling one waiter (client gone mid-request) must not cancel the
  shared computation the other waiters are shielded behind;
* a computation that raises fails *all* current waiters with an error
  response, then clears the in-flight slot so the next request retries
  fresh.

The last test repeats the first contract end to end: 16 socket clients
released by a barrier send one identical cold trace request to a live
:class:`ServerThread`, and the ``stats`` deltas show one computation
and 15 dedup joins.
"""

import asyncio
import threading
import time

import pytest

from repro.serve import ReproServer, ServeClient, ServerThread


def spec(seed=0, request_id=None):
    return {
        "op": "run",
        "id": request_id,
        "kind": "trace",
        "working_set": 4096,
        "seed": seed,
    }


class ComputeSpy:
    """Stands in for ``ReproServer._compute``; blocks until released."""

    def __init__(self, fail_first=False):
        self.calls = []
        self.release = threading.Event()
        self.fail_first = fail_first
        self._lock = threading.Lock()

    def __call__(self, normalized):
        with self._lock:
            self.calls.append(normalized.key())
            ordinal = len(self.calls)
        assert self.release.wait(timeout=30), "spy never released"
        if self.fail_first and ordinal == 1:
            raise RuntimeError("synthetic lane failure")
        return {"execution": ordinal, "seed": normalized.seed}, True


async def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("timed out waiting for daemon state")
        await asyncio.sleep(0.005)


def test_identical_concurrent_requests_execute_once():
    async def scenario():
        server = ReproServer()
        spy = ComputeSpy()
        server._compute = spy
        n = 8

        waiters = [
            asyncio.create_task(server.handle_request(spec(request_id=i)))
            for i in range(n)
        ]
        # All but the first join the in-flight task instead of spawning.
        await wait_until(lambda: server.stats.deduped == n - 1)
        assert len(spy.calls) == 1
        assert len(server._inflight) == 1
        spy.release.set()
        responses = await asyncio.gather(*waiters)

        assert [r["ok"] for r in responses] == [True] * n
        assert {r["payload"]["execution"] for r in responses} == {1}
        assert {r["key"] for r in responses} == {spy.calls[0]}
        assert server.stats.computed == 1
        assert server.stats.deduped == n - 1
        # The in-flight slot is cleared once the task resolves.
        await wait_until(lambda: not server._inflight)

    asyncio.run(scenario())


def test_distinct_seeds_fan_out():
    async def scenario():
        server = ReproServer()
        spy = ComputeSpy()
        server._compute = spy
        spy.release.set()  # no gating needed — just count executions

        responses = await asyncio.gather(
            *(server.handle_request(spec(seed=s)) for s in range(5))
        )
        assert len(spy.calls) == len(set(spy.calls)) == 5
        assert server.stats.deduped == 0
        assert server.stats.computed == 5
        assert {r["payload"]["seed"] for r in responses} == set(range(5))

    asyncio.run(scenario())


def test_cancelled_waiter_does_not_poison_the_shared_future():
    async def scenario():
        server = ReproServer()
        spy = ComputeSpy()
        server._compute = spy

        first = asyncio.create_task(server.handle_request(spec(request_id=1)))
        await wait_until(lambda: len(spy.calls) == 1)
        second = asyncio.create_task(server.handle_request(spec(request_id=2)))
        await wait_until(lambda: server.stats.deduped == 1)

        # The first client hangs up; its waiter is cancelled.
        first.cancel()
        with pytest.raises(asyncio.CancelledError):
            await first

        # The shared computation must still be alive for the survivor.
        spy.release.set()
        response = await second
        assert response["ok"] is True
        assert response["payload"]["execution"] == 1
        assert len(spy.calls) == 1  # never re-executed

        # And the result was cached on the way out.
        third = await server.handle_request(spec(request_id=3))
        assert third["source"] == "lru"
        assert third["payload"] == response["payload"]

    asyncio.run(scenario())


def test_compute_failure_fails_all_waiters_then_clears_the_slot():
    async def scenario():
        server = ReproServer()
        spy = ComputeSpy(fail_first=True)
        server._compute = spy

        waiters = [
            asyncio.create_task(server.handle_request(spec(request_id=i)))
            for i in range(3)
        ]
        await wait_until(lambda: server.stats.deduped == 2)
        spy.release.set()
        responses = await asyncio.gather(*waiters)

        # One failed execution poisons every waiter of THAT attempt...
        assert [r["ok"] for r in responses] == [False] * 3
        assert all("synthetic lane failure" in r["error"] for r in responses)
        assert len(spy.calls) == 1
        assert server.stats.errors == 3

        # ...but not the key: the next request computes fresh.
        await wait_until(lambda: not server._inflight)
        retry = await server.handle_request(spec(request_id=99))
        assert retry["ok"] is True
        assert retry["source"] == "computed"
        assert len(spy.calls) == 2

    asyncio.run(scenario())


def test_concurrent_socket_clients_execute_once():
    """16 clients on real sockets, released together by a barrier, send
    one identical cold trace request: the daemon computes it once and
    parks the other 15 on the in-flight task."""
    # Big enough (~2 s) that every client's frame is on the wire before
    # the first computation finishes.
    dedup_spec = {"kind": "trace", "working_set": 8 << 20, "passes": 3, "seed": 12345}
    clients = 16
    with ServerThread() as st:
        with ServeClient(st.host, st.port) as probe:
            before = probe.stats()["stats"]
            barrier = threading.Barrier(clients)
            payloads = []

            def worker():
                with ServeClient(st.host, st.port) as client:
                    barrier.wait(timeout=30)
                    payloads.append(client.run(**dedup_spec)["payload"])

            threads = [threading.Thread(target=worker) for _ in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            after = probe.stats()["stats"]

    assert len(payloads) == clients
    assert all(p == payloads[0] for p in payloads)
    assert after["computed"] - before["computed"] == 1
    assert after["deduped"] - before["deduped"] == clients - 1
