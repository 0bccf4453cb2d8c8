"""Unit tests for the BENCH_*.json cross-run trajectory checker."""

import json

import pytest

from repro.reporting.trajectory import (
    Drift,
    check_trajectory,
    compare_payloads,
    flatten_metrics,
    main,
)


class TestFlatten:
    def test_nested_dicts_get_dotted_keys(self):
        flat = flatten_metrics({"lanes": {"stream": {"speedup": 5.0}}})
        assert flat == {"lanes.stream.speedup": 5.0}

    def test_lists_get_indexed_keys(self):
        flat = flatten_metrics({"depths": [1, 7]})
        assert flat == {"depths[0]": 1.0, "depths[1]": 7.0}

    def test_bools_become_binary(self):
        flat = flatten_metrics({"ok": True, "broken": False})
        assert flat == {"ok": 1.0, "broken": 0.0}

    def test_strings_and_nulls_skipped(self):
        flat = flatten_metrics({"benchmark": "x", "note": None, "n": 3})
        assert flat == {"n": 3.0}


class TestDrift:
    def test_rel_change(self):
        assert Drift("m", 10.0, 12.0).rel_change == pytest.approx(0.2)

    def test_zero_baseline_nonzero_current_is_infinite(self):
        assert Drift("m", 0.0, 1.0).rel_change == float("inf")
        assert Drift("m", 0.0, 0.0).rel_change == 0.0

    def test_line_marks_drift(self):
        assert "DRIFT" in Drift("m", 10.0, 20.0).line(threshold=0.2)
        assert "DRIFT" not in Drift("m", 10.0, 10.5).line(threshold=0.2)


class TestCompare:
    def test_only_shared_metrics_compared(self):
        drifts = compare_payloads({"a": 1.0, "b": 2.0}, {"a": 1.5, "c": 9.0})
        assert [d.metric for d in drifts] == ["a"]

    def test_ignore_globs(self):
        drifts = compare_payloads(
            {"trace_s": 1.0, "speedup": 10.0},
            {"trace_s": 9.0, "speedup": 10.0},
            ignore=["*_s"],
        )
        assert [d.metric for d in drifts] == ["speedup"]

    def test_include_globs(self):
        drifts = compare_payloads(
            {"a.speedup": 1.0, "a.err": 0.1},
            {"a.speedup": 1.0, "a.err": 0.1},
            include=["*.speedup"],
        )
        assert [d.metric for d in drifts] == ["a.speedup"]

    def test_top_level_host_record_never_compared(self):
        drifts = compare_payloads(
            {"speedup": 10.0, "host": {"nproc": 2, "affinity": [0, 1]}},
            {"speedup": 10.0, "host": {"nproc": 64, "affinity": [0]}},
        )
        assert [d.metric for d in drifts] == ["speedup"]
        # Only the top-level record is descriptive; a nested "host" key
        # is an ordinary metric.
        nested = compare_payloads({"lane": {"host": 1.0}}, {"lane": {"host": 2.0}})
        assert [d.metric for d in nested] == ["lane.host"]


class TestCheckTrajectory:
    def write(self, path, payload):
        path.write_text(json.dumps(payload), encoding="utf-8")

    def test_within_threshold_passes(self, tmp_path):
        base, new = tmp_path / "base", tmp_path / "new"
        base.mkdir(), new.mkdir()
        self.write(base / "BENCH_x.json", {"speedup": 10.0})
        self.write(new / "BENCH_x.json", {"speedup": 11.0})
        ok, lines = check_trajectory([new / "BENCH_x.json"], base)
        assert ok
        assert any("1 metrics compared, 0 beyond" in line for line in lines)

    def test_drift_fails(self, tmp_path):
        base, new = tmp_path / "base", tmp_path / "new"
        base.mkdir(), new.mkdir()
        self.write(base / "BENCH_x.json", {"speedup": 10.0})
        self.write(new / "BENCH_x.json", {"speedup": 5.0})
        ok, lines = check_trajectory([new / "BENCH_x.json"], base)
        assert not ok
        assert any("DRIFT" in line and "speedup" in line for line in lines)

    def test_missing_baseline_seeds_without_failing(self, tmp_path):
        base, new = tmp_path / "base", tmp_path / "new"
        base.mkdir(), new.mkdir()
        self.write(new / "BENCH_new.json", {"speedup": 10.0})
        ok, lines = check_trajectory([new / "BENCH_new.json"], base)
        assert ok
        assert any(line.startswith("seed") for line in lines)

    def test_flipped_invariant_is_a_drift(self, tmp_path):
        base, new = tmp_path / "base", tmp_path / "new"
        base.mkdir(), new.mkdir()
        self.write(base / "BENCH_x.json", {"bit_identical": True})
        self.write(new / "BENCH_x.json", {"bit_identical": False})
        ok, _ = check_trajectory([new / "BENCH_x.json"], base)
        assert not ok


class TestCLI:
    def test_exit_codes(self, tmp_path, capsys):
        base = tmp_path / "base"
        base.mkdir()
        (base / "BENCH_x.json").write_text('{"speedup": 10.0}', encoding="utf-8")
        new = tmp_path / "BENCH_x.json"
        new.write_text('{"speedup": 10.5}', encoding="utf-8")
        assert main([str(new), "--baseline", str(base)]) == 0
        assert "Trajectory OK" in capsys.readouterr().out
        new.write_text('{"speedup": 1.0}', encoding="utf-8")
        assert main([str(new), "--baseline", str(base)]) == 1
        assert "Trajectory DRIFTED" in capsys.readouterr().out

    def test_ignore_flag(self, tmp_path):
        base = tmp_path / "base"
        base.mkdir()
        (base / "BENCH_x.json").write_text(
            '{"trace_s": 1.0, "speedup": 10.0}', encoding="utf-8"
        )
        new = tmp_path / "BENCH_x.json"
        new.write_text('{"trace_s": 99.0, "speedup": 10.0}', encoding="utf-8")
        assert main([str(new), "--baseline", str(base), "--ignore", "*_s"]) == 0

    def test_rejects_missing_artifact(self, tmp_path):
        with pytest.raises(SystemExit):
            main([str(tmp_path / "nope.json"), "--baseline", str(tmp_path)])
