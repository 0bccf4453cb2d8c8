"""Admission control: bounded in-flight, quotas, and lane priority.

The daemon sheds *new compute starts* when its pools are full — cache
hits and in-flight joins always pass, so load shedding can never make a
previously-answerable question unanswerable.  The heavy pool (trace /
experiment) and the fast analytic pool are separate: a saturated trace
lane must not take the O(1) oracle down with it.
"""

import socket
import threading
import time

import pytest

from repro.serve import (
    ServeClient,
    ServeError,
    ServerThread,
    build_chaos,
    decode_message,
    encode_message,
)
from repro.serve.daemon import RETRY_AFTER_S, ResilienceConfig
from repro.serve.loadgen import DaemonProcess

#: Every trace here is slowed to 300 ms so a second request reliably
#: arrives while the first still occupies its heavy slot.
SLOW_TRACE = "slow_lane:rate=1,delay_ms=300,lane=trace"


def trace_spec(seed):
    return {"kind": "trace", "working_set": 64 * 1024, "seed": seed}


def start_background_run(host, port, spec, results):
    def work():
        with ServeClient(host, port) as client:
            try:
                results.append(client.run(**spec))
            except ServeError as exc:  # pragma: no cover - surfaced by caller
                results.append(exc)

    thread = threading.Thread(target=work)
    thread.start()
    return thread


def test_full_heavy_pool_sheds_with_retry_after():
    config = ResilienceConfig(max_heavy=1)
    with ServerThread(
        lru_capacity=8, chaos=build_chaos(SLOW_TRACE), resilience=config
    ) as st:
        results = []
        thread = start_background_run(st.host, st.port, trace_spec(1), results)
        time.sleep(0.1)  # let the first trace occupy the only heavy slot
        with ServeClient(st.host, st.port) as client:
            with pytest.raises(ServeError) as excinfo:
                client.run(**trace_spec(2))
            assert excinfo.value.code == "busy"
            assert excinfo.value.response["retry_after"] == RETRY_AFTER_S["heavy"]
        thread.join()
        assert results[0]["ok"] is True  # the occupant was never disturbed
        with ServeClient(st.host, st.port) as client:
            assert client.stats()["stats"]["shed"] == 1
            # With the slot free again the shed request now succeeds.
            assert client.run(**trace_spec(2))["ok"] is True


def test_shed_client_can_retry_through_the_helper():
    config = ResilienceConfig(max_heavy=1)
    with ServerThread(
        lru_capacity=8, chaos=build_chaos(SLOW_TRACE), resilience=config
    ) as st:
        results = []
        thread = start_background_run(st.host, st.port, trace_spec(1), results)
        time.sleep(0.1)
        with ServeClient(st.host, st.port) as client:
            # _busy_retries sleeps the daemon's retry_after hint between
            # attempts; the slot frees within 300 ms so 8 paced retries
            # (>= 8 * 0.25 s) are ample.
            response = client.run(_busy_retries=8, **trace_spec(2))
            assert response["ok"] is True
        thread.join()
        assert results[0]["ok"] is True


def test_dedup_join_bypasses_admission():
    """An identical in-flight request joins the running computation even
    when the heavy pool is full — dedup is not a new compute start."""
    config = ResilienceConfig(max_heavy=1)
    with ServerThread(
        lru_capacity=8, chaos=build_chaos(SLOW_TRACE), resilience=config
    ) as st:
        results = []
        thread = start_background_run(st.host, st.port, trace_spec(1), results)
        time.sleep(0.1)
        with ServeClient(st.host, st.port) as client:
            joined = client.run(**trace_spec(1))  # same spec -> join, not shed
            assert joined["source"] == "inflight"
        thread.join()
        assert joined["payload"] == results[0]["payload"]
        with ServeClient(st.host, st.port) as client:
            stats = client.stats()["stats"]
            assert stats["deduped"] == 1
            assert stats["shed"] == 0


def test_analytic_lane_stays_available_under_heavy_saturation():
    config = ResilienceConfig(max_heavy=1)
    with ServerThread(
        lru_capacity=8, chaos=build_chaos(SLOW_TRACE), resilience=config
    ) as st:
        results = []
        thread = start_background_run(st.host, st.port, trace_spec(1), results)
        time.sleep(0.1)
        with ServeClient(st.host, st.port) as client:
            # The fast pool is untouched by the saturated heavy pool.
            response = client.run(
                kind="analytic", request={"kind": "chase", "working_set": 4 << 20}
            )
            assert response["ok"] is True
            assert client.stats()["resilience"]["active"]["heavy"] == 1
        thread.join()
        assert results[0]["ok"] is True


def test_per_client_quota_sheds_second_pipelined_heavy():
    """One connection pipelining two distinct traces with a quota of 1:
    the second gets a ``quota`` error, and responses stay in request
    order despite concurrent processing."""
    config = ResilienceConfig(max_heavy=4, client_heavy_quota=1)
    with ServerThread(
        lru_capacity=8, chaos=build_chaos(SLOW_TRACE), resilience=config
    ) as st:
        with socket.create_connection((st.host, st.port), timeout=30.0) as sock:
            frames = [
                encode_message({"op": "run", "id": i, **trace_spec(10 + i)})
                for i in range(2)
            ]
            sock.sendall(b"".join(frames))
            reader = sock.makefile("rb")
            first = decode_message(reader.readline())
            second = decode_message(reader.readline())
        assert [first["id"], second["id"]] == [0, 1]
        assert first["ok"] is True
        assert second["ok"] is False
        assert second["code"] == "quota"
        assert second["retry_after"] == RETRY_AFTER_S["heavy"]
        with ServeClient(st.host, st.port) as client:
            assert client.stats()["stats"]["quota_shed"] == 1


def test_quota_is_per_connection_not_global():
    config = ResilienceConfig(max_heavy=4, client_heavy_quota=1)
    with ServerThread(
        lru_capacity=8, chaos=build_chaos(SLOW_TRACE), resilience=config
    ) as st:
        results = []
        threads = [
            start_background_run(st.host, st.port, trace_spec(20 + i), results)
            for i in range(3)
        ]
        for thread in threads:
            thread.join()
        # Three connections, one heavy each: nobody hit the quota.
        assert all(r["ok"] is True for r in results)
        with ServeClient(st.host, st.port) as client:
            stats = client.stats()["stats"]
            assert stats["quota_shed"] == 0 and stats["shed"] == 0


def wait_for_active_heavy(client, count, timeout=10.0):
    deadline = time.monotonic() + timeout
    while client.stats()["resilience"]["active"]["heavy"] < count:
        assert time.monotonic() < deadline, "the first trace never started"
        time.sleep(0.01)


def test_cli_max_heavy_sheds_the_second_slowed_trace(tmp_path):
    """``python -m repro.serve --max-heavy 1``: of two slowed traces on
    two connections, the one arriving second is shed ``busy``."""
    daemon = DaemonProcess(
        str(tmp_path), lru_capacity=8,
        extra_args=["--chaos", SLOW_TRACE, "--max-heavy", "1"],
    )
    results = []
    try:
        thread = start_background_run(daemon.host, daemon.port, trace_spec(1), results)
        with ServeClient(daemon.host, daemon.port) as client:
            wait_for_active_heavy(client, 1)
            with pytest.raises(ServeError) as excinfo:
                client.run(**trace_spec(2))
            thread.join(timeout=30)
            assert not thread.is_alive()
            stats = client.stats()["stats"]
    finally:
        daemon.stop()
    assert excinfo.value.code == "busy"
    assert results[0]["ok"] is True
    assert stats["shed"] == 1 and stats["quota_shed"] == 0


def test_cli_client_heavy_quota_sheds_the_second_pipelined_trace(tmp_path):
    """``python -m repro.serve --client-heavy-quota 1``: one connection
    pipelining two slowed traces gets ``quota`` for the second."""
    daemon = DaemonProcess(
        str(tmp_path), lru_capacity=8,
        extra_args=["--chaos", SLOW_TRACE, "--client-heavy-quota", "1"],
    )
    try:
        with socket.create_connection((daemon.host, daemon.port), timeout=30.0) as sock:
            sock.sendall(b"".join(
                encode_message({"op": "run", "id": i, **trace_spec(30 + i)})
                for i in range(2)
            ))
            reader = sock.makefile("rb")
            first = decode_message(reader.readline())
            second = decode_message(reader.readline())
    finally:
        daemon.stop()
    assert first["ok"] is True
    assert second["ok"] is False and second["code"] == "quota"


def test_resilience_config_validation():
    with pytest.raises(ValueError):
        ResilienceConfig(max_heavy=0)
    with pytest.raises(ValueError):
        ResilienceConfig(client_window=0)
    with pytest.raises(ValueError):
        ResilienceConfig(breaker_threshold=0)
    with pytest.raises(ValueError):
        ResilienceConfig(drain_timeout_s=-1.0)
