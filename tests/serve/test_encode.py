"""Pre-encoded payloads: the bytes the daemon sends are the bytes it sent
when it encoded a decoded dict payload inside every reply.

The daemon encodes each result once (:func:`encode_payload`) and
splices those bytes into replies (:func:`encode_message`).  These tests
pin that the shortcut changes no wire byte:

* over every analytic payload the benchmark requests (the 108 requests
  of ``tests/perfmodel/golden_payloads.json``), the direct encoding of
  ``result.to_dict()`` equals the encoding of ``canonical(...)`` and
  decodes to the pinned payload;
* a spliced reply equals ``encode_message(ok_response(...))`` with the
  dict payload, for every source a reply can carry;
* every ok reply keeps the ``{"id":N,"ok":true,`` prefix that clients
  check before parsing the rest.
"""

import asyncio
import json

import pytest

from repro.parallel.cache import ResultCache, payload_digest
from repro.perfmodel.oracle import AnalyticOracle, OracleRequest
from repro.serve import ReproServer
from repro.serve.protocol import (
    canonical,
    encode_message,
    encode_payload,
    get_system,
    normalize_request,
    ok_response,
)
from tests.perfmodel.regen_golden_payloads import (
    GOLDEN_PAYLOADS_PATH,
    MACHINES,
    requests,
)

SOURCES = ("lru", "disk", "computed", "inflight", "degraded")
KEY = "ab" * 32


def direct_result(machine, request):
    return AnalyticOracle(get_system(machine)).predict(OracleRequest.from_dict(request))


def reply(request_id, source, payload):
    extra = {"degraded": True} if source == "degraded" else {}
    return ok_response(request_id, key=KEY, source=source, payload=payload, **extra)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PAYLOADS_PATH.read_text(encoding="utf-8"))["digests"]


@pytest.mark.parametrize("machine", MACHINES)
def test_direct_encoding_equals_canonical_encoding(golden, machine):
    for request_id, (label, request) in enumerate(requests()):
        result = direct_result(machine, request)
        encoded = encode_payload(result.to_dict())
        assert encoded + b"\n" == encode_message(canonical(result.to_dict())), label
        assert payload_digest(json.loads(encoded)) == golden[machine][label], label
        for source in SOURCES:
            spliced = encode_message(reply(request_id, source, encoded))
            expected = encode_message(reply(request_id, source, canonical(result.to_dict())))
            assert spliced == expected, (label, source)
            assert spliced.startswith(b'{"id":%d,"ok":true,' % request_id)


@pytest.mark.parametrize(
    "message",
    [
        {"payload": b"[1,2]"},
        {"id": None, "ok": True, "payload": b"{}"},
        {"id": "x", "payload": b'{"a":[1]}', "degraded": True, "n": [1, 2]},
    ],
)
def test_splice_keeps_key_order_at_every_position(message):
    decoded = {k: json.loads(v) if k == "payload" else v for k, v in message.items()}
    assert encode_message(message) == encode_message(decoded)


def test_daemon_replies_match_dict_encoding_on_every_source(tmp_path):
    """Drive one analytic spec and one trace spec through a real
    in-process daemon: the reply bytes for each source equal the reply a
    dict payload would have encoded to."""
    analytic = {"op": "run", "kind": "analytic", "machine": "broadwell",
                "request": {"kind": "stream_sweep"}}
    trace = {"op": "run", "kind": "trace", "working_set": 4096}
    cache_dir = str(tmp_path / "cache")
    direct = canonical(direct_result("broadwell", {"kind": "stream_sweep"}).to_dict())
    key = normalize_request(analytic).key()

    def expect(response, payload, **extra):
        wire = encode_message(response)
        assert wire == encode_message(
            ok_response(response["id"], key=response["key"],
                        source=response["source"], payload=payload, **extra)
        )
        assert wire.startswith(b'{"id":%d,"ok":true,' % response["id"])

    async def scenario():
        server = ReproServer(cache_dir=cache_dir)
        computed, inflight = await asyncio.gather(
            server.handle_request({**analytic, "id": 1}),
            server.handle_request({**analytic, "id": 2}),
        )
        hot = await server.handle_request({**analytic, "id": 3})
        assert [computed["source"], inflight["source"], hot["source"]] == [
            "computed", "inflight", "lru"]
        for response in (computed, inflight, hot):
            expect(response, direct)

        fresh = ReproServer(cache_dir=cache_dir)
        disk = await fresh.handle_request({**analytic, "id": 4})
        assert disk["source"] == "disk"
        expect(disk, ResultCache(cache_dir).get(key))
        promoted = await fresh.handle_request({**analytic, "id": 5})
        assert promoted["source"] == "lru"
        assert encode_message(promoted) == encode_message(disk).replace(
            b'"id":4', b'"id":5').replace(b'"source":"disk"', b'"source":"lru"')

        for _ in range(server.resilience.breaker_threshold):
            server._breaker("trace").record_failure()
        degraded = await server.handle_request({**trace, "id": 6})
        assert degraded["source"] == "degraded"
        chase = AnalyticOracle(get_system("power8")).predict(
            OracleRequest(kind="chase", working_set=4096, page_size=64 * 1024)
        )
        expect(degraded, canonical(chase.to_dict()), degraded=True)

    asyncio.run(scenario())
