"""Property tests for the in-memory LRU tier and the tiered overlay.

Hypothesis drives :class:`~repro.serve.lru.LRUTier` against a
reference model (a plain dict plus an explicit recency list) and checks
the laws the daemon relies on:

* the tier never holds more than ``capacity`` entries;
* eviction removes exactly the least-recently-*used* key (``get`` and
  ``put`` both freshen recency; ``in`` does not);
* a ``put`` followed by ``get`` round-trips the payload unchanged;
* :class:`~repro.serve.lru.TieredResultCache` is a transparent overlay:
  reads through it return, decoded, exactly what a bare on-disk
  :class:`~repro.parallel.cache.ResultCache` would, regardless of the
  interleaving that got the entry there.  The overlay stores and
  returns encoded payload bytes, so ``put``/``get`` go through
  :func:`~repro.serve.protocol.encode_payload` and ``json.loads``.
"""

import json
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.cache import ResultCache
from repro.serve.lru import LRUTier, TieredResultCache
from repro.serve.protocol import encode_payload

# Small alphabets force collisions, evictions and re-insertions.
keys = st.integers(min_value=0, max_value=11).map(lambda i: f"k{i:02d}")
payloads = st.fixed_dictionaries(
    {"v": st.integers(), "rows": st.lists(st.integers(), max_size=3)}
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, payloads),
        st.tuples(st.just("get"), keys, st.none()),
        st.tuples(st.just("contains"), keys, st.none()),
    ),
    max_size=60,
)


class ModelLRU:
    """The executable spec: dict + recency list, no cleverness."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.data = {}
        self.recency = []  # LRU ... MRU

    def _touch(self, key):
        if key in self.recency:
            self.recency.remove(key)
        self.recency.append(key)

    def put(self, key, payload):
        self.data[key] = payload
        self._touch(key)
        while len(self.data) > self.capacity:
            victim = self.recency.pop(0)
            del self.data[victim]

    def get(self, key):
        if key not in self.data:
            return None
        self._touch(key)
        return self.data[key]


@given(capacity=st.integers(min_value=1, max_value=6), script=ops)
def test_lru_matches_reference_model(capacity, script):
    real = LRUTier(capacity)
    model = ModelLRU(capacity)
    for op, key, payload in script:
        if op == "put":
            real.put(key, payload)
            model.put(key, payload)
        elif op == "get":
            assert real.get(key) == model.get(key)
        else:
            # Membership is recency-neutral by contract.
            assert (key in real) == (key in model.data)
        assert len(real) == len(model.data) <= capacity
        assert list(real.keys()) == model.recency


@given(capacity=st.integers(min_value=1, max_value=8), script=ops)
def test_capacity_is_a_hard_bound(capacity, script):
    tier = LRUTier(capacity)
    for op, key, payload in script:
        if op == "put":
            tier.put(key, payload)
        assert len(tier) <= capacity
    stats = tier.stats()
    assert stats["entries"] <= capacity
    assert stats["evictions"] >= 0


@given(key=keys, payload=payloads)
def test_put_get_round_trip(key, payload):
    tier = LRUTier(4)
    tier.put(key, payload)
    assert tier.get(key) == payload
    assert tier.stats()["hits"] == 1


def test_eviction_order_is_least_recently_used():
    tier = LRUTier(2)
    tier.put("a", {"v": 1})
    tier.put("b", {"v": 2})
    assert tier.get("a") == {"v": 1}  # freshen "a"; "b" is now LRU
    tier.put("c", {"v": 3})  # evicts "b"
    assert "b" not in tier
    assert tier.get("a") == {"v": 1}
    assert tier.get("c") == {"v": 3}
    assert tier.stats()["evictions"] == 1


@settings(deadline=None, max_examples=25)
@given(script=ops)
def test_tiered_overlay_is_transparent(script):
    """Writes through the overlay and reads answer exactly like a bare
    ResultCache fed the same puts — whatever tier they come from."""
    with tempfile.TemporaryDirectory() as tmp_a, tempfile.TemporaryDirectory() as tmp_b:
        tiered = TieredResultCache(LRUTier(2), ResultCache(tmp_a))
        bare = ResultCache(tmp_b)
        for op, key, payload in script:
            if op == "put":
                tiered.put(key, encode_payload(payload))
                bare.put(key, payload)
            else:
                got, source = tiered.get(key)
                expected = bare.get(key)
                assert (got if got is None else json.loads(got)) == expected
                if got is not None:
                    assert source in ("lru", "disk")
                    # A disk hit must have been promoted.
                    assert key in tiered.lru
                else:
                    assert source is None


def test_overlay_survives_lru_eviction_via_disk():
    with tempfile.TemporaryDirectory() as tmp:
        tiered = TieredResultCache(LRUTier(1), ResultCache(tmp))
        tiered.put("x", encode_payload({"v": 1}))
        tiered.put("y", encode_payload({"v": 2}))  # evicts "x" from the LRU
        assert "x" not in tiered.lru
        got, source = tiered.get("x")
        assert json.loads(got) == {"v": 1}
        assert source == "disk"
        # ... and the read promoted it back into memory.
        got, source = tiered.get("x")
        assert source == "lru"


def test_overlay_without_disk_is_just_the_lru():
    tiered = TieredResultCache(LRUTier(1), None)
    tiered.put("x", encode_payload({"v": 1}))
    tiered.put("y", encode_payload({"v": 2}))
    assert tiered.get("x") == (None, None)
    assert tiered.get("y") == (b'{"v":2}', "lru")


# -- integrity ---------------------------------------------------------------


def test_mutating_a_decoded_hit_leaves_the_next_hit_unchanged():
    """A hot entry is bytes: whatever a caller does to the payload it
    decoded from one hit, the next hit serves the stored bytes."""
    tiered = TieredResultCache(LRUTier(4), None)
    stored = encode_payload({"v": 1, "rows": [1, 2]})
    tiered.put("x", stored)
    first, _ = tiered.get("x")
    decoded = json.loads(first)
    decoded["v"] = 999
    decoded["rows"].append(3)
    assert tiered.get("x") == (stored, "lru")


def test_disk_entry_matches_the_computed_bytes():
    """The disk tier stores the decoded payload, so its JSON and SHA-256
    are what a dict payload put directly would have written."""
    payload = {"rows": [[1, 2.5]], "kind": "chase", "notes": ""}
    with tempfile.TemporaryDirectory() as tmp_a, tempfile.TemporaryDirectory() as tmp_b:
        path = TieredResultCache(LRUTier(2), ResultCache(tmp_a)).put(
            "x", encode_payload(payload)
        )
        bare = ResultCache(tmp_b).put("x", payload)
        assert path.read_bytes() == bare.read_bytes()


def test_tiered_put_returns_the_disk_path():
    with tempfile.TemporaryDirectory() as tmp:
        tiered = TieredResultCache(LRUTier(2), ResultCache(tmp))
        path = tiered.put("x", encode_payload({"v": 1}))
        assert path is not None and path.is_file()
    assert TieredResultCache(LRUTier(2), None).put("x", encode_payload({"v": 1})) is None


def test_quarantined_disk_entry_surfaces_in_tier_stats():
    from repro.parallel.cache import payload_digest  # noqa: F401 - import guard

    with tempfile.TemporaryDirectory() as tmp:
        disk = ResultCache(tmp)
        tiered = TieredResultCache(LRUTier(1), disk)
        path = tiered.put("x", encode_payload({"v": 1}))
        tiered.put("y", encode_payload({"v": 2}))  # evict "x" from memory
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert tiered.get("x") == (None, None)  # truncated -> quarantined miss
        assert tiered.stats()["disk"]["quarantined"] == 1
