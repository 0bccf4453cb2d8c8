"""``python -m repro.bench perf NAME``: dispatch, artifact bytes, exit codes.

Scenarios are replaced by cheap stand-ins through
``monkeypatch.setitem(SCENARIOS, ...)``, so nothing here measures
anything; the real runs are ``python -m repro.bench perf NAME`` itself.
"""

import copy
import dataclasses
import json

import pytest

from repro.bench import perf
from repro.bench.__main__ import main
from repro.bench.perf import SCENARIOS, Timing, time_repeats, write_bench

NAMES = ("trace", "stream-fastpath", "analytic", "parallel", "chaos", "compare")


def stub(monkeypatch, name, result):
    """Swap the scenario's measurement for one that returns ``result``."""
    monkeypatch.setitem(
        SCENARIOS, name, dataclasses.replace(SCENARIOS[name], run=lambda: result)
    )


STREAM_FASTPATH_FLOORS = {
    "prefetch": 5.0, "stream_read": 2.5, "stream_write": 2.5, "resident_write": 4.0,
}
ANALYTIC_LANES = ("lat_mem", "stream", "prefetch")

#: A result that passes every check of its scenario.
PASSING = {
    "trace": {
        "reference_ns_per_access": 30.0, "batch_ns_per_access": 1.0,
        "speedup": 30.0, "simulated_mean_latency_ns": 0.7,
    },
    "stream-fastpath": {
        "lanes": {
            name: {"scalar_ns_per_access": 10.0, "fast_ns_per_access": 1.0,
                   "speedup": 10.0, "simulated_mean_latency_ns": 2.8}
            for name in STREAM_FASTPATH_FLOORS
        },
    },
    "analytic": {
        "lanes": {
            name: {"trace_s": 1.0, "oracle_s": 1e-5, "speedup": 1e5,
                   "max_rel_err": 0.0, "within_tolerance": True,
                   "counters_exact": True}
            for name in ANALYTIC_LANES
        },
        "min_speedup": 1e5, "max_rel_err": 0.0, "all_within_tolerance": True,
    },
    "parallel": {
        "serial_s": 4.0, "plan_serial_s": 1.0, "parallel_s": 1.0, "workers": 4,
        "speedup": 4.0, "bit_identical": True,
        "serial_l1_hit_fraction": 0.0, "sharded_l1_hit_fraction": 0.99,
    },
    "chaos": {
        "mixed_fault": {
            "requests": 10, "availability": 1.0, "violations": 0,
            "p50_ms": 1.0, "p99_ms": 2.0, "malformed_sent": 0,
            "oversized_sent": 0, "disconnects_injected": 0, "dropped": 0,
            "timeouts": 0, "server_chaos_counts": {"lane_error": 1},
        },
    },
}


def failing(name, path, value):
    """``PASSING[name]`` with the field at ``path`` set to ``value``."""
    result = copy.deepcopy(PASSING[name])
    *parents, leaf = path
    target = result
    for key in parents:
        target = target[key]
    target[leaf] = value
    return result


#: One case per check: a result just past its threshold, and the name
#: ``perf`` must print for it.
FAILING_CASES = [
    ("analytic-tolerance", "analytic", ("all_within_tolerance",), False,
     "all_within_tolerance"),
    ("parallel-bit-identical", "parallel", ("bit_identical",), False,
     "bit_identical"),
    ("chaos-violations", "chaos", ("mixed_fault", "violations"), 1,
     "mixed_fault.violations == 0"),
    ("trace-latency", "trace", ("simulated_mean_latency_ns",), 0.0,
     "simulated_mean_latency_ns > 0"),
    ("trace-speedup", "trace", ("speedup",), 9.99, "speedup >= 10"),
    ("stream-fastpath-lanes", "stream-fastpath", ("lanes", "extra"),
     PASSING["stream-fastpath"]["lanes"]["prefetch"],
     "lanes == prefetch, stream_read, stream_write, resident_write"),
    *(
        (f"stream-fastpath-{lane}-latency", "stream-fastpath",
         ("lanes", lane, "simulated_mean_latency_ns"), 0.0,
         f"{lane}.simulated_mean_latency_ns > 0")
        for lane in STREAM_FASTPATH_FLOORS
    ),
    *(
        (f"stream-fastpath-{lane}-speedup", "stream-fastpath",
         ("lanes", lane, "speedup"), floor - 0.01, f"{lane}.speedup >= {floor}")
        for lane, floor in STREAM_FASTPATH_FLOORS.items()
    ),
    ("analytic-lanes", "analytic", ("lanes", "extra"),
     PASSING["analytic"]["lanes"]["stream"], "lanes == lat_mem, stream, prefetch"),
    *(
        (f"analytic-{lane}-speedup", "analytic", ("lanes", lane, "speedup"),
         999.99, f"{lane}.speedup >= 1000")
        for lane in ANALYTIC_LANES
    ),
    *(
        (f"analytic-{lane}-within-tolerance", "analytic",
         ("lanes", lane, "within_tolerance"), False, f"{lane}.within_tolerance")
        for lane in ANALYTIC_LANES
    ),
    ("analytic-counters-exact", "analytic",
     ("lanes", "prefetch", "counters_exact"), False, "prefetch.counters_exact"),
    ("analytic-stream-exact", "analytic", ("lanes", "stream", "max_rel_err"),
     1e-9, "stream.max_rel_err < 1e-9"),
    ("parallel-l1-hits", "parallel", ("sharded_l1_hit_fraction",), 0.0,
     "sharded_l1_hit_fraction > serial_l1_hit_fraction"),
    ("parallel-speedup", "parallel", ("speedup",), 1.99, "speedup >= 2.0"),
    ("chaos-availability", "chaos", ("mixed_fault", "availability"), 0.9899,
     "mixed_fault.availability >= 0.99"),
    ("chaos-no-faults-fired", "chaos", ("mixed_fault", "server_chaos_counts"),
     {}, "mixed_fault.server_chaos_counts non-empty"),
]


def test_the_six_scenarios_and_their_artifacts():
    assert tuple(SCENARIOS) == NAMES
    assert SCENARIOS["stream-fastpath"].artifact == "BENCH_stream_fastpath.json"
    for name in ("trace", "analytic", "parallel", "chaos", "compare"):
        assert SCENARIOS[name].artifact == f"BENCH_{name}.json"


def test_unknown_scenario_errors_and_lists_the_names(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["perf", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "nope" in err
    for name in NAMES:
        assert name in err


def test_out_gets_exactly_write_bench_bytes(monkeypatch, tmp_path, capsys):
    result = {"benchmark": "stub", "speedup": 12.5, "lanes": {"b": 2, "a": 1}}
    stub(monkeypatch, "compare", result)
    monkeypatch.setitem(
        SCENARIOS, "compare",
        dataclasses.replace(SCENARIOS["compare"], summary=lambda r: ["stub line"]),
    )
    out = tmp_path / "out.json"
    assert main(["perf", "compare", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"stub line\n[wrote {out}]\n"

    reference = tmp_path / "reference.json"
    write_bench(str(reference), result)
    assert out.read_bytes() == reference.read_bytes()
    written = json.loads(out.read_text())
    assert set(written["host"]) == {"cpu_model", "nproc", "affinity", "python", "numpy"}


def test_out_defaults_to_the_scenario_artifact(monkeypatch, tmp_path, capsys):
    stub(monkeypatch, "compare", {"bench": "compare", "machines": {}})
    monkeypatch.chdir(tmp_path)
    assert main(["perf", "compare"]) == 0
    assert (tmp_path / "BENCH_compare.json").exists()
    assert "[wrote BENCH_compare.json]" in capsys.readouterr().out


def test_write_bench_format(tmp_path):
    path = tmp_path / "b.json"
    payload = write_bench(str(path), {"z": 1, "a": [1, 2]})
    text = path.read_text()
    assert text.endswith("}\n")
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert list(json.loads(text)) == ["a", "host", "z"]


@pytest.mark.parametrize(
    "name, path, value, check",
    [case[1:] for case in FAILING_CASES],
    ids=[case[0] for case in FAILING_CASES],
)
def test_failed_pass_predicate_exits_1(
    monkeypatch, tmp_path, capsys, name, path, value, check
):
    stub(monkeypatch, name, failing(name, path, value))
    out = str(tmp_path / "out.json")
    assert main(["perf", name, "--out", out]) == 1
    failed = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("FAILED ")
    ]
    assert failed == [f"FAILED {name}: {check}"]
    # The artifact is written either way: a failing run is a record too.
    assert json.loads((tmp_path / "out.json").read_text())["host"]


def test_a_missing_field_fails_its_check(monkeypatch, tmp_path, capsys):
    result = copy.deepcopy(PASSING["parallel"])
    del result["sharded_l1_hit_fraction"]
    stub(monkeypatch, "parallel", result)
    assert main(["perf", "parallel", "--out", str(tmp_path / "out.json")]) == 1
    assert ("FAILED parallel: sharded_l1_hit_fraction > serial_l1_hit_fraction"
            in capsys.readouterr().out)


@pytest.mark.parametrize("name", ["trace", "stream-fastpath", "analytic", "parallel"])
def test_passing_results_exit_0(monkeypatch, tmp_path, capsys, name):
    stub(monkeypatch, name, PASSING[name])
    assert main(["perf", name, "--out", str(tmp_path / "out.json")]) == 0
    assert "FAILED" not in capsys.readouterr().out


def test_passing_chaos_exits_0(monkeypatch, tmp_path):
    stub(monkeypatch, "chaos", PASSING["chaos"])
    assert main(["perf", "chaos", "--out", str(tmp_path / "out.json")]) == 0


def test_parallel_runs_its_own_defaults(monkeypatch):
    """``perf parallel`` times the 8-shard, 4-worker pool, not the
    experiment runner's 1-worker default."""
    import inspect

    from repro.bench import parallel_perf

    defaults = inspect.signature(parallel_perf.run_parallel_bench).parameters
    assert defaults["shards"].default == 8
    assert defaults["workers"].default == 4
    calls = []
    monkeypatch.setattr(
        parallel_perf, "run_parallel_bench", lambda *a, **kw: calls.append((a, kw))
    )
    SCENARIOS["parallel"].run()
    assert calls == [((), {})]


class TestTiming:
    def test_spread_of_fixed_samples(self):
        timing = Timing.of([5.0, 1.0, 3.0, 2.0, 4.0], value="v")
        assert timing.min_s == 1.0
        assert timing.median_s == 3.0
        assert timing.iqr_s == 2.0  # q3 4.0 - q1 2.0
        assert timing.value == "v"

    def test_single_sample_has_no_spread(self):
        timing = Timing.of([0.25])
        assert (timing.min_s, timing.median_s, timing.iqr_s) == (0.25, 0.25, 0.0)

    def test_record_field_names(self):
        record = Timing.of([1.0, 3.0]).record("oracle")
        assert record == {"oracle_s": 1.0, "oracle_median_s": 2.0, "oracle_iqr_s": 1.0}

    def test_time_repeats_on_a_fixed_clock(self, monkeypatch):
        # Four samples of 2 calls each; each call returns its ordinal.
        ticks = iter([0.0, 4.0, 10.0, 12.0, 20.0, 26.0, 30.0, 38.0])
        monkeypatch.setattr(perf, "perf_counter", lambda: next(ticks))
        calls = iter(range(100))
        timing = time_repeats(lambda: next(calls), 4, number=2)
        # Per-call sample times: 2, 1, 3, 4 (s).
        assert timing.min_s == 1.0
        assert timing.median_s == 2.5
        assert timing.iqr_s == pytest.approx(3.25 - 1.75)
        assert timing.value == 7  # the last call, not the fastest sample's

    def test_setup_runs_untimed_before_every_sample(self, monkeypatch):
        ticks = iter([0.0, 1.0, 1.0, 3.0])
        monkeypatch.setattr(perf, "perf_counter", lambda: next(ticks))
        made = []
        timing = time_repeats(
            lambda arg: arg * 10, 2, setup=lambda: made.append(len(made)) or len(made)
        )
        assert made == [0, 1]
        assert timing.min_s == 1.0  # the first sample; the second took 2 s
        assert timing.value == 20  # what the last sample's call returned
