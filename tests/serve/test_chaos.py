"""Chaos suite: deterministic service faults and the daemon's invariant.

The invariant under every injected fault class — crashing or wedged
compute lanes, corrupted disk entries, dropped connections — is that
the daemon serves either a structured error row or a payload
bit-identical to the direct in-process run, never a corrupt result, and
that the daemon itself keeps serving afterwards.

The injector half mirrors the :mod:`repro.ras` tests: plans parse the
compact grammar, draws are pure functions of (seed, site, counter), and
raising a rate strictly grows the fired set.
"""

import time

import pytest

from repro.serve import ServeClient, ServeError, ServerThread
from repro.serve.chaos import (
    ChaosClause,
    ChaosError,
    ChaosInjector,
    ChaosPlan,
    build_chaos,
)
from repro.serve.daemon import ResilienceConfig

TRACE_SPEC = {"kind": "trace", "working_set": 64 * 1024, "seed": 5}


def direct_trace_payload(spec):
    from repro.arch import e870
    from repro.parallel.runner import sharded_traced_latency
    from repro.serve.protocol import trace_payload

    _, result = sharded_traced_latency(
        e870(), spec["working_set"], shards=spec.get("shards", 1), seed=spec["seed"]
    )
    return trace_payload(result)


# -- plan parsing ------------------------------------------------------------


def test_plan_parse_round_trip():
    plan = ChaosPlan.parse(
        "slow_lane:rate=0.1,delay_ms=5;corrupt_disk:at=2,mode=bitflip;"
        "hang_lane:at=1,hang_s=0.5,lane=trace"
    )
    assert len(plan.clauses) == 3
    slow, corrupt, hang = plan.clauses
    assert slow.kind == "slow_lane" and slow.rate == 0.1 and slow.delay_ms == 5
    assert corrupt.at == 2 and corrupt.mode == "bitflip"
    assert hang.lane == "trace" and hang.hang_s == 0.5
    assert "slow_lane:rate=0.1" in plan.describe()
    assert ChaosPlan.parse("").describe() == "(no chaos)"


@pytest.mark.parametrize(
    "spec,fragment",
    [
        ("explode:rate=1", "unknown chaos kind"),
        ("slow_lane:rate=2", "rate must be in"),
        ("slow_lane:at=0", "1-based"),
        ("slow_lane:delay_ms=-1", "delays must be"),
        ("corrupt_disk:mode=melt", "unknown corrupt mode"),
        ("corrupt_disk:lane=trace", "lane= only applies"),
        ("slow_lane:lane=warp", "unknown lane"),
        ("slow_lane:rate", "key=value"),
        ("slow_lane:speed=9", "unknown key"),
    ],
)
def test_plan_rejects(spec, fragment):
    with pytest.raises(ValueError, match=fragment):
        ChaosPlan.parse(spec)


def test_build_chaos_passthrough():
    assert build_chaos(None) is None
    injector = build_chaos("lane_error:at=1", seed=3)
    assert injector.seed == 3


# -- deterministic draws -----------------------------------------------------


def test_at_trigger_fires_exactly_once():
    clause = ChaosClause(kind="lane_error", at=3)
    fired = [n for n in range(1, 20) if clause.fires(0, 100, n)]
    assert fired == [3]


def test_draws_are_reproducible_and_monotone_in_rate():
    lo = ChaosClause(kind="lane_error", rate=0.1)
    hi = ChaosClause(kind="lane_error", rate=0.4)
    lo_fired = {n for n in range(1, 400) if lo.fires(7, 100, n)}
    assert lo_fired == {n for n in range(1, 400) if lo.fires(7, 100, n)}
    hi_fired = {n for n in range(1, 400) if hi.fires(7, 100, n)}
    assert lo_fired <= hi_fired  # same draws, bigger threshold
    assert len(lo_fired) < len(hi_fired)


def test_injector_replay_is_identical():
    plan = ChaosPlan.parse("lane_error:rate=0.3;slow_lane:rate=0.2,delay_ms=0")
    def run():
        injector = ChaosInjector(plan, seed=11)
        outcomes = []
        for _ in range(100):
            try:
                injector.on_lane("trace")
                outcomes.append("ok")
            except ChaosError:
                outcomes.append("err")
        return outcomes, injector.counts()
    assert run() == run()


def test_lane_filter_scopes_the_clause():
    injector = ChaosInjector(ChaosPlan.parse("lane_error:at=1,lane=trace"), seed=0)
    injector.on_lane("analytic")  # clause filtered out: no opportunity consumed
    with pytest.raises(ChaosError):
        injector.on_lane("trace")
    assert injector.counts() == {"lane_error": 1}


def test_corrupt_disk_damages_the_file(tmp_path):
    injector = ChaosInjector(ChaosPlan.parse("corrupt_disk:at=1,mode=truncate"), seed=0)
    path = tmp_path / "entry.json"
    original = b'{"payload": {"v": 1}, "sha256": "abc"}'
    path.write_bytes(original)
    assert injector.on_disk_put(path) is True
    assert path.read_bytes() != original
    # Second opportunity: at=1 already fired, file untouched.
    path.write_bytes(original)
    assert injector.on_disk_put(path) is False
    assert path.read_bytes() == original


# -- daemon under chaos ------------------------------------------------------


def test_lane_error_is_a_structured_row_then_recovers():
    """An injected worker crash serves an error row (code=lane), is not
    cached, and the identical retry serves the bit-identical payload."""
    chaos = build_chaos("lane_error:at=1", seed=0)
    with ServerThread(lru_capacity=8, chaos=chaos) as st:
        with ServeClient(st.host, st.port) as client:
            with pytest.raises(ServeError) as excinfo:
                client.run(**TRACE_SPEC)
            assert excinfo.value.code == "lane"
            assert "ChaosError" in str(excinfo.value)
            healed = client.run(**TRACE_SPEC)
            assert healed["source"] == "computed"  # error row was never cached
            assert healed["payload"] == direct_trace_payload(TRACE_SPEC)


def test_corrupt_disk_entry_is_quarantined_and_recomputed(tmp_path):
    """Tentpole part 4 end-to-end: the entry written for the first run
    is corrupted on disk; once evicted from the LRU, the next fetch must
    quarantine the bad file and recompute the identical payload."""
    chaos = build_chaos("corrupt_disk:at=1,mode=bitflip", seed=0)
    with ServerThread(lru_capacity=2, cache_dir=str(tmp_path), chaos=chaos) as st:
        with ServeClient(st.host, st.port) as client:
            first = client.run(**TRACE_SPEC)
            assert first["source"] == "computed"
            # Push the target out of the 2-entry LRU.
            for ws in (2 << 20, 3 << 20):
                client.run(kind="analytic", request={"kind": "chase", "working_set": ws})
            healed = client.run(**TRACE_SPEC)
            assert healed["source"] == "computed"  # disk hit was refused
            assert healed["payload"] == first["payload"]
            tiers = client.stats()["tiers"]
            assert tiers["disk"]["quarantined"] == 1
    assert len(list(tmp_path.glob("*.quarantined"))) == 1


def test_drop_conn_kills_one_connection_not_the_daemon():
    """Chaos aborts the first response mid-write; that client sees a
    dead socket, every other (and later) connection is unaffected."""
    chaos = build_chaos("drop_conn:at=1", seed=0)
    with ServerThread(lru_capacity=8, chaos=chaos) as st:
        with pytest.raises((ConnectionError, OSError)):
            with ServeClient(st.host, st.port) as victim:
                victim.run(kind="analytic", request={"kind": "chase"})
        with ServeClient(st.host, st.port) as survivor:
            response = survivor.run(kind="analytic", request={"kind": "chase"})
            assert response["ok"] is True
            assert survivor.stats()["stats"]["disconnects"] == 1


def test_slow_lane_delays_but_serves_identical_payload():
    chaos = build_chaos("slow_lane:at=1,delay_ms=150", seed=0)
    with ServerThread(lru_capacity=8, chaos=chaos) as st:
        with ServeClient(st.host, st.port) as client:
            start = time.perf_counter()
            response = client.run(**TRACE_SPEC)
            assert time.perf_counter() - start >= 0.15
            assert response["payload"] == direct_trace_payload(TRACE_SPEC)


def test_breaker_trips_serves_degraded_then_half_opens():
    """Consecutive trace-lane failures trip the breaker: trace requests
    degrade to the marked analytic stand-in (never cached); after the
    cooldown one probe goes through and closes the breaker again."""
    chaos = build_chaos("lane_error:at=1;lane_error:at=2,lane=trace", seed=0)
    config = ResilienceConfig(breaker_threshold=2, breaker_cooldown_s=0.3)
    with ServerThread(lru_capacity=8, chaos=chaos, resilience=config) as st:
        with ServeClient(st.host, st.port) as client:
            for seed in (101, 102):  # two distinct computes, two failures
                with pytest.raises(ServeError) as excinfo:
                    client.run(kind="trace", working_set=64 * 1024, seed=seed)
                assert excinfo.value.code == "lane"
            stats = client.stats()
            assert stats["resilience"]["breakers"]["trace"]["state"] == "open"
            assert stats["resilience"]["breakers"]["trace"]["trips"] == 1

            degraded = client.run(kind="trace", working_set=64 * 1024, seed=103)
            assert degraded["degraded"] is True
            assert degraded["source"] == "degraded"
            assert "latency" in str(degraded["payload"]).lower() or degraded["payload"]

            time.sleep(0.35)  # past the cooldown: next start is the probe
            probe = client.run(kind="trace", working_set=64 * 1024, seed=103)
            assert probe["source"] == "computed"
            assert probe["payload"] == direct_trace_payload(
                {"kind": "trace", "working_set": 64 * 1024, "seed": 103}
            )
            stats = client.stats()
            assert stats["resilience"]["breakers"]["trace"]["state"] == "closed"
            assert stats["stats"]["degraded"] == 1


def test_failing_analytic_requests_trip_no_breaker():
    """The oracle is a pure in-process function: requests it rejects
    fail on their own, so however many there are, the next valid
    analytic miss from another connection is computed, not shed with
    ``circuit_open``."""
    with ServerThread(lru_capacity=8) as st:
        with ServeClient(st.host, st.port) as bad:
            for _ in range(ResilienceConfig().breaker_threshold):
                with pytest.raises(ServeError) as excinfo:
                    bad.run(kind="analytic", request={"kind": "chase", "working_set": 0})
                assert excinfo.value.code == "lane"
        with ServeClient(st.host, st.port) as good:
            response = good.run(
                kind="analytic", request={"kind": "chase", "working_set": 4 << 20}
            )
            assert response["source"] == "computed"
            stats = good.stats()
            assert stats["stats"]["circuit_rejects"] == 0
            assert "analytic" not in stats["resilience"]["breakers"]


def test_degraded_results_are_never_cached():
    chaos = build_chaos("lane_error:rate=1,lane=trace", seed=0)
    config = ResilienceConfig(breaker_threshold=1, breaker_cooldown_s=60.0)
    with ServerThread(lru_capacity=8, chaos=chaos, resilience=config) as st:
        with ServeClient(st.host, st.port) as client:
            with pytest.raises(ServeError):
                client.run(kind="trace", working_set=64 * 1024, seed=1)
            first = client.run(kind="trace", working_set=64 * 1024, seed=2)
            second = client.run(kind="trace", working_set=64 * 1024, seed=2)
            assert first["degraded"] and second["degraded"]
            # A cached degraded answer would have come back as an LRU hit.
            assert second["source"] == "degraded"
            assert client.stats()["stats"]["lru_hits"] == 0


def test_chaos_counts_surface_in_stats():
    chaos = build_chaos("lane_error:at=1", seed=0)
    with ServerThread(lru_capacity=8, chaos=chaos) as st:
        with ServeClient(st.host, st.port) as client:
            with pytest.raises(ServeError):
                client.run(**TRACE_SPEC)
            assert client.stats()["chaos"] == {"lane_error": 1}


def test_chaos_worker_reports_its_error_instead_of_an_empty_out():
    """A harness worker that cannot reach the daemon records the
    exception (type, message, traceback) for the harness to raise with."""
    import socket

    from repro.serve.loadgen import _chaos_worker, chase_spec

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]  # closed again before the worker dials
    out = {}
    _chaos_worker(
        "127.0.0.1", port, [chase_spec(4096)], {},
        ChaosInjector(ChaosPlan.parse("")), out,
    )
    assert "requests" not in out
    assert "ConnectionRefusedError" in out["error"]
    assert "Traceback" in out["error"]
