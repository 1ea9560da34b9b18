"""Tests for the bench trajectory tracker (repro.obs.history)."""

import json

import pytest

from repro.obs.history import (
    attribute_changes,
    count_code_lines,
    extract_latency,
    extract_throughput,
    ingest_results,
    is_wall_metric,
    load_trajectory,
    main,
    metric_sense,
    seed_entry_from_baseline,
    update_trajectory,
    write_trajectory,
)

THROUGHPUT = {
    "benchmark": "throughput",
    "sequential": {"ops_per_sec": 30000.0},
    "scenarios": [
        {
            "skew": "zipf s=1.1",
            "s": 1.1,
            "uncached": {"rounds_per_op": 0.5, "ops_per_sec": 40000.0},
            "cached": {
                "rounds_per_op": 0.1,
                "ops_per_sec": 90000.0,
                "hit_rate": 0.9,
            },
            "round_reduction": 5.0,
        }
    ],
    "ratios": {"batched_vs_sequential_ops": 1.5},
}

LATENCY = {
    "benchmark": "latency",
    "op_classes": {"lookup": {"count": 10, "p50": 30.0, "p95": 80.0, "p99": 99.0}},
    "layers": {"cache-hit": {"count": 5, "p50": 2.0, "p95": 4.0, "p99": 5.0}},
    "disks": {"mean_utilization": 0.45},
    "overhead": {
        "overhead_fraction": 0.03,
        "instrumented_ops_per_sec": 29000.0,
    },
}


class TestExtractors:
    def test_throughput_flattens_scenarios_and_ratios(self):
        metrics = extract_throughput(THROUGHPUT)
        assert metrics["throughput.sequential_ops_per_sec"] == 30000.0
        assert metrics["throughput.zipf_s1.1.uncached.rounds_per_op"] == 0.5
        assert metrics["throughput.zipf_s1.1.cached.hit_rate"] == 0.9
        assert metrics["throughput.zipf_s1.1.round_reduction"] == 5.0
        assert metrics["throughput.ratios.batched_vs_sequential_ops"] == 1.5

    def test_latency_flattens_percentiles_and_overhead(self):
        metrics = extract_latency(LATENCY)
        assert metrics["latency.op.lookup.p50_us"] == 30.0
        assert metrics["latency.layer.cache-hit.p99_us"] == 5.0
        assert metrics["latency.mean_disk_utilization"] == 0.45
        assert metrics["latency.overhead_fraction"] == 0.03

    def test_ingest_dispatches_and_reports_unknown(self, tmp_path):
        (tmp_path / "BENCH_throughput.json").write_text(
            json.dumps(THROUGHPUT)
        )
        (tmp_path / "BENCH_latency.json").write_text(json.dumps(LATENCY))
        (tmp_path / "BENCH_mystery.json").write_text("{}")
        out = ingest_results(tmp_path)
        assert out["sources"] == ["BENCH_latency", "BENCH_throughput"]
        assert out["skipped"] == ["BENCH_mystery"]
        assert "latency.op.lookup.p50_us" in out["metrics"]
        assert "throughput.sequential_ops_per_sec" in out["metrics"]

    def test_code_line_counts_are_exact_and_lower_is_better(self, tmp_path):
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
        (tmp_path / "src" / "pkg" / "b.py").write_text("z = 3\n")
        (tmp_path / "src" / "pkg" / "notes.txt").write_text("1\n2\n3\n")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_a.py").write_text("def test():\n    pass\n")
        assert count_code_lines(tmp_path) == {
            "code.src_lines": 3,
            "code.tests_lines": 2,
        }
        assert count_code_lines(tmp_path / "missing") == {}
        assert metric_sense("code.src_lines") is False
        assert not is_wall_metric("code.tests_lines")
        # ingest reports the checkout's own counts beside the artifacts
        metrics = ingest_results(tmp_path)["metrics"]
        assert metrics["code.src_lines"] > 0
        assert metrics["code.tests_lines"] > 0


class TestMetricSense:
    def test_direction_table(self):
        assert metric_sense("throughput.x.ops_per_sec") is True
        assert metric_sense("throughput.x.hit_rate") is True
        assert metric_sense("batch.basic.speedup") is True
        assert metric_sense("throughput.x.rounds_per_op") is False
        assert metric_sense("latency.op.lookup.p99_us") is False
        assert metric_sense("latency.overhead_fraction") is False
        assert metric_sense("smoke.basic.monitor_violations") is False
        assert metric_sense("something.unknowable") is None

    def test_wall_vs_exact(self):
        assert is_wall_metric("latency.op.lookup.p50_us")
        assert is_wall_metric("throughput.x.ops_per_sec")
        assert is_wall_metric("throughput.ratios.batched_vs_sequential_ops")
        assert not is_wall_metric("throughput.x.rounds_per_op")
        assert not is_wall_metric("smoke.basic.total_ios")


class TestTrajectory:
    def test_update_appends_then_replaces_by_label(self):
        traj = {"version": 1, "entries": [], "attribution": []}
        update_trajectory(traj, "pr1", {"m": 1.0})
        update_trajectory(traj, "pr2", {"m": 2.0})
        assert [e["label"] for e in traj["entries"]] == ["pr1", "pr2"]
        update_trajectory(traj, "pr1", {"m": 3.0})  # idempotent re-run
        assert [e["label"] for e in traj["entries"]] == ["pr1", "pr2"]
        assert traj["entries"][0]["metrics"]["m"] == 3.0

    def test_update_requires_label(self):
        with pytest.raises(ValueError, match="label"):
            update_trajectory({"entries": []}, "", {"m": 1.0})

    def test_attribution_directions(self):
        entries = [
            {"label": "a", "metrics": {
                "smoke.x.total_ios": 100,
                "batch.x.speedup": 2.0,
                "weird.metric": 1.0,
            }},
            {"label": "b", "metrics": {
                "smoke.x.total_ios": 80,     # lower better -> improved
                "batch.x.speedup": 1.0,      # higher better -> regressed
                "weird.metric": 2.0,         # unknown sense -> changed
            }},
        ]
        records = {r["metric"]: r for r in attribute_changes(entries)}
        assert records["smoke.x.total_ios"]["direction"] == "improved"
        assert records["batch.x.speedup"]["direction"] == "regressed"
        assert records["weird.metric"]["direction"] == "changed"
        assert records["batch.x.speedup"]["prev_label"] == "a"

    def test_wall_deadband_swallows_jitter(self):
        entries = [
            {"label": "a", "metrics": {"x.ops_per_sec": 100.0}},
            {"label": "b", "metrics": {"x.ops_per_sec": 103.0}},  # 3% < 5%
            {"label": "c", "metrics": {"x.ops_per_sec": 80.0}},   # real drop
        ]
        records = attribute_changes(entries)
        assert len(records) == 1
        assert records[0]["label"] == "c"
        assert records[0]["direction"] == "regressed"

    def test_exact_metrics_attribute_tiny_changes(self):
        entries = [
            {"label": "a", "metrics": {"smoke.x.total_ios": 1000}},
            {"label": "b", "metrics": {"smoke.x.total_ios": 1001}},
        ]
        (rec,) = attribute_changes(entries)
        assert rec["direction"] == "regressed"

    def test_attribution_skips_absent_metrics(self):
        entries = [
            {"label": "a", "metrics": {"m": 1.0}},
            {"label": "b", "metrics": {}},  # metric not reported
            {"label": "c", "metrics": {"m": 9.0}},
        ]
        (rec,) = attribute_changes(entries)
        assert rec["prev_label"] == "a" and rec["label"] == "c"

    def test_round_trip_and_version_check(self, tmp_path):
        path = tmp_path / "trajectory.json"
        traj = {"version": 1, "entries": [], "attribution": []}
        update_trajectory(traj, "pr1", {"m": 1.0}, sources=["BENCH_x"])
        write_trajectory(traj, path)
        loaded = load_trajectory(path)
        assert loaded["entries"][0]["sources"] == ["BENCH_x"]
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="version"):
            load_trajectory(path)

    def test_missing_file_is_empty_trajectory(self, tmp_path):
        traj = load_trajectory(tmp_path / "absent.json")
        assert traj["entries"] == []

    def test_seed_entry_from_baseline(self, tmp_path):
        baseline = tmp_path / "throughput.json"
        baseline.write_text(json.dumps(THROUGHPUT))
        seed = seed_entry_from_baseline(baseline)
        assert seed["label"] == "baseline"
        assert seed["metrics"]["throughput.sequential_ops_per_sec"] == 30000.0


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_merge_writes_and_exits_zero(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "BENCH_throughput.json").write_text(
            json.dumps(THROUGHPUT)
        )
        out = tmp_path / "trajectory.json"
        code = self.run(
            "--results", str(results), "--out", str(out), "--label", "pr9"
        )
        assert code == 0
        traj = json.loads(out.read_text())
        assert [e["label"] for e in traj["entries"]] == ["pr9"]
        assert "trajectory:" in capsys.readouterr().out

    def test_seed_baseline_inserted_once(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "BENCH_throughput.json").write_text(
            json.dumps(THROUGHPUT)
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(THROUGHPUT))
        out = tmp_path / "trajectory.json"
        for label in ("pr1", "pr2"):
            code = self.run(
                "--results", str(results), "--out", str(out),
                "--label", label, "--seed-baseline", str(baseline),
                "--quiet",
            )
            assert code == 0
        traj = json.loads(out.read_text())
        assert [e["label"] for e in traj["entries"]] == [
            "baseline", "pr1", "pr2",
        ]

    def test_no_artifacts_is_operational_error(self, tmp_path, capsys):
        results = tmp_path / "empty"
        results.mkdir()
        out = tmp_path / "trajectory.json"
        code = self.run(
            "--results", str(results), "--out", str(out), "--label", "x"
        )
        assert code == 2
        assert not out.exists()
        assert "no ingestible" in capsys.readouterr().err
