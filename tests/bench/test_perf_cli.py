"""``python -m repro.bench perf NAME``: dispatch, artifact bytes, exit codes.

Scenarios are replaced by cheap stand-ins through
``monkeypatch.setitem(SCENARIOS, ...)``, so nothing here measures
anything; the real runs are ``benchmarks/test_perf_*.py``.
"""

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


def chaos_result(violations=0, payload_identical=True, exit_code=0):
    return {
        "mixed_fault": {
            "requests": 10, "availability": 1.0, "violations": violations,
            "p50_ms": 1.0, "p99_ms": 2.0, "malformed_sent": 0,
            "oversized_sent": 0, "disconnects_injected": 0, "dropped": 0,
            "timeouts": 0,
        },
        "quarantine": {
            "payload_identical": payload_identical, "quarantined": 1,
            "healed_source": "computed",
        },
        "overload": {"total_shed": 1, "busy": 1, "quota": 0, "ok": 1},
        "drain": {"exit_code": exit_code, "drained_line_present": True},
    }


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
    "name, result",
    [
        ("analytic", {"lanes": {}, "min_speedup": 1.0, "max_rel_err": 0.5,
                      "all_within_tolerance": False}),
        ("parallel", {"serial_s": 1.0, "plan_serial_s": 1.0, "parallel_s": 1.0,
                      "workers": 4, "speedup": 1.0, "bit_identical": False}),
        ("chaos", chaos_result(violations=1)),
        ("chaos", chaos_result(payload_identical=False)),
        ("chaos", chaos_result(exit_code=1)),
    ],
    ids=["analytic-tolerance", "parallel-bit-identical", "chaos-violations",
         "chaos-payload-identical", "chaos-drain-exit-code"],
)
def test_failed_pass_predicate_exits_1(monkeypatch, tmp_path, name, result):
    stub(monkeypatch, name, result)
    out = str(tmp_path / "out.json")
    assert main(["perf", name, "--out", out]) == 1
    # The artifact is written either way: a failing run is a record too.
    assert json.loads((tmp_path / "out.json").read_text())["host"]


def test_passing_chaos_exits_0(monkeypatch, tmp_path):
    stub(monkeypatch, "chaos", chaos_result())
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
