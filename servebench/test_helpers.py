"""Tests of the benchmark's own helpers: ``python -m pytest servebench``."""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from helpers import (  # noqa: E402
    children_by_parent,
    fast_percentile,
    highest_supported_tail,
    percentile,
    quartile_spread,
    samples_beyond,
    self_time,
    union_length,
    windowed_throughput,
)


def _key(spec):
    return json.dumps(spec, sort_keys=True)


class TestPercentile:
    def test_returns_value_and_sample_count(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == (50.0, 100)
        assert percentile(list(reversed(values)), 90) == (90.0, 100)

    def test_tail_needs_ten_samples_beyond(self):
        values = [float(v) for v in range(1000)]
        assert samples_beyond(1000, 99) == 10
        assert percentile(values, 99) == (989.0, 1000)
        with pytest.raises(ValueError, match="beyond"):
            percentile(values[:999], 99)

    def test_median_is_never_refused(self):
        assert percentile([3.0, 1.0, 2.0], 50) == (2.0, 3)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)

    def test_fast_percentile_reads_the_best_share(self):
        values = [float(v) for v in range(1, 21)]
        # Two of twenty samples are the best tenth, from either end.
        assert fast_percentile(values, 10, higher_is_better=False) == (2.0, 20)
        assert fast_percentile(values, 10, higher_is_better=True) == (19.0, 20)
        assert fast_percentile([5.0], 10, higher_is_better=True) == (5.0, 1)
        with pytest.raises(ValueError):
            fast_percentile(values, 90, higher_is_better=True)

    def test_highest_supported_tail_walks_down(self):
        q, value, n = highest_supported_tail([float(v) for v in range(100)])
        assert (q, n) == (90, 100)
        assert value == 89.0
        q, _, _ = highest_supported_tail([1.0, 2.0, 3.0])
        assert q == 50


class TestWindowedThroughput:
    def test_one_rate_per_full_window(self):
        times = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
        assert windowed_throughput(times, 2) == [2.0, 2.0]

    def test_trailing_partial_window_dropped(self):
        times = [0.0, 1.0, 2.0, 2.5]
        assert windowed_throughput(times, 2) == [1.0]

    def test_shared_timestamps_within_a_window(self):
        # Three replies read by one recv share a timestamp.
        times = [0.0, 0.1, 0.1, 0.1, 0.4]
        assert windowed_throughput(times, 4) == [10.0]

    def test_rejects_non_increasing_window(self):
        with pytest.raises(ValueError):
            windowed_throughput([1.0, 1.0, 1.0], 2)
        with pytest.raises(ValueError):
            windowed_throughput([0.0, 1.0], 0)


class TestSpans:
    # name, start, end, parent, request id, n
    SPANS = [
        ["daemon.handle", 0, 100, None, 1, None],   # 0
        ["protocol.normalize", 10, 40, 0, 1, None],  # 1
        ["protocol.canonical", 20, 30, 1, 1, None],  # 2
        ["protocol.key", 40, 70, 0, 1, None],        # 3
        ["lane.work", 60, 90, 0, 1, None],           # 4: overlaps key
        ["late", 95, 120, 0, 1, None],               # 5: runs past its parent
    ]

    def test_union_merges_overlaps(self):
        assert union_length([(0, 10), (5, 15), (20, 25)]) == 20
        assert union_length([]) == 0

    def test_self_time_subtracts_children_once(self):
        children = children_by_parent(self.SPANS)
        assert children == {0: [1, 3, 4, 5], 1: [2]}
        # Children cover 10-40, 40-90 and 95-100 (clipped): 85 of 100.
        assert self_time(self.SPANS, 0, children) == 15
        assert self_time(self.SPANS, 1, children) == 20
        assert self_time(self.SPANS, 2, children) == 10


class TestStreams:
    def test_streams_are_deterministic_per_seed(self):
        for name in workloads.WORKLOADS:
            a = list(itertools.islice(workloads.stream(name, 7), 300))
            b = list(itertools.islice(workloads.stream(name, 7), 300))
            c = list(itertools.islice(workloads.stream(name, 8), 300))
            assert a == b
            assert a != c

    def test_oracle_miss_never_repeats_a_key(self):
        specs = list(itertools.islice(workloads.stream("oracle-miss", 3), 20_000))
        assert len({_key(s) for s in specs}) == len(specs)
        pairs = {(s["machine"], s["request"]["kind"]) for s in specs[:72]}
        assert len(pairs) == len(workloads.MACHINES) * len(workloads.KINDS)

    def test_hot_hits_stays_inside_its_hot_set(self):
        hot = {_key(s) for s in workloads.hot_set(3)}
        assert 200 <= len(hot) < 4096
        specs = list(itertools.islice(workloads.stream("hot-hits", 3), 5000))
        assert {_key(s) for s in specs} == hot
        pairs = {(s["machine"], s["request"]["kind"]) for s in specs}
        assert len(pairs) == len(workloads.MACHINES) * len(workloads.KINDS)

    def test_trace_chase_cycles_every_class_with_fresh_seeds(self):
        specs = list(itertools.islice(workloads.stream("trace-chase", 3), 90))
        assert len({s["seed"] for s in specs}) == len(specs)
        sizes = [s["working_set"] for s in specs]
        assert sizes[:9] == list(workloads.TRACE_CYCLE)
        assert {workloads.trace_class(w) for w in sizes} == {"l1", "l2", "l3"}

    def test_streams_never_reach_setup_or_probe_keys(self):
        reserved = {_key(s) for s in workloads.setup_specs() + workloads.probe_specs()}
        for name in workloads.WORKLOADS:
            specs = itertools.islice(workloads.stream(name, 999), 2000)
            assert not reserved & {_key(s) for s in specs}


def test_quartile_spread():
    q1, med, q3, spread = quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0
    assert spread == pytest.approx((q3 - q1) / 3.0)
