"""The benchmark harness: registry, runner, artifacts, comparator, CLI."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import bench
from repro.bench import (
    ArtifactError,
    BenchmarkSpec,
    BenchResult,
    Thresholds,
    UnknownBenchmarkError,
    build_artifact,
    compare_artifacts,
    default_artifact_path,
    find_latest_artifact,
    git_sha,
    read_artifact,
    run_benchmark,
    validate_artifact,
    write_artifact,
)
from repro.bench.registry import LAYERS, benchmark, register, unregister

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_spec(name="t.spec", layer="te", func=lambda: None, **kwargs):
    return BenchmarkSpec(name=name, layer=layer, func=func, **kwargs)


class TestRegistry:
    def test_discovery_covers_every_layer_with_ten_plus_workloads(self):
        bench.discover()
        names = bench.benchmark_names()
        assert len(names) >= 10
        layers = {bench.get_spec(name).layer for name in names}
        assert layers == set(LAYERS)

    def test_unknown_name_suggests_close_matches(self):
        bench.discover()
        with pytest.raises(UnknownBenchmarkError) as info:
            bench.get_spec("bdd.build_aply")
        assert "bdd.build_apply" in info.value.suggestions
        assert "bdd.build_apply" in str(info.value)

    def test_select_filters_by_comma_separated_needles(self):
        bench.discover()
        selected = bench.select("bdd,store.tunnels")
        names = [spec.name for spec in selected]
        assert "bdd.build_apply" in names and "store.tunnels.warm" in names
        assert all("bdd" in n or "store.tunnels" in n for n in names)
        assert bench.select("") == bench.select(None)

    def test_register_rejects_duplicates_unless_replace(self):
        spec = make_spec("t.dup")
        register(spec)
        try:
            with pytest.raises(ValueError):
                register(spec)
            register(make_spec("t.dup", description="new"), replace=True)
            assert bench.get_spec("t.dup").description == "new"
        finally:
            unregister("t.dup")

    def test_spec_validates_layer_and_repeat(self):
        with pytest.raises(ValueError):
            make_spec(layer="nope")
        with pytest.raises(ValueError):
            make_spec(repeat=0)

    def test_decorator_registers_and_returns_function(self):
        @benchmark("t.deco", layer="bdd", description="d")
        def workload():
            return {"x": 1}

        try:
            assert bench.get_spec("t.deco").func is workload
            assert workload() == {"x": 1}
        finally:
            unregister("t.deco")


class TestRunner:
    def test_setup_once_pre_iteration_and_warmup_every_iteration(self):
        calls = {"setup": 0, "pre": 0, "run": 0}
        spec = make_spec(
            func=lambda: calls.__setitem__("run", calls["run"] + 1),
            setup=lambda: calls.__setitem__("setup", calls["setup"] + 1),
            pre_iteration=lambda: calls.__setitem__("pre", calls["pre"] + 1),
        )
        result = run_benchmark(spec, repeat=3, warmup=2)
        assert calls == {"setup": 1, "pre": 5, "run": 5}
        assert len(result.seconds) == 3
        assert result.warmup == 2

    def test_dict_return_value_lands_in_meta(self):
        spec = make_spec(func=lambda: {"objective": 42.0, "skip": object()})
        result = run_benchmark(spec, repeat=1, warmup=0)
        assert result.meta["objective"] == 42.0
        assert "skip" not in result.meta  # non-JSON values are dropped

    def test_metrics_capture_only_the_timed_block(self):
        from repro import obs

        def workload():
            obs.metrics.counter("solver.test_counter").inc(2)

        spec = make_spec(
            func=workload,
            setup=lambda: obs.metrics.counter("solver.test_counter").inc(99),
        )
        result = run_benchmark(spec, repeat=3, warmup=1)
        # setup's 99 and the warmup iteration's 2 are both outside the
        # timed block; only the 3 timed iterations count.
        assert result.metrics["solver.test_counter"] == 6

    def test_stats_on_known_seconds(self):
        result = BenchResult(
            name="t", layer="te", seconds=[0.2, 0.1, 0.3],
            metrics={}, meta={}, repeat=3, warmup=0, description="",
        )
        assert result.min_seconds == pytest.approx(0.1)
        assert result.median_seconds == pytest.approx(0.2)
        assert result.mean_seconds == pytest.approx(0.2)
        assert result.stats()["stddev"] == pytest.approx(0.0816496, rel=1e-4)

    def test_workloads_are_deterministic(self):
        bench.discover()
        spec = bench.get_spec("bdd.build_apply")
        first = run_benchmark(spec, repeat=1, warmup=0)
        second = run_benchmark(spec, repeat=1, warmup=0)
        assert first.meta == second.meta
        assert first.meta  # the workload reports correctness signals


class TestArtifact:
    def run_two(self):
        spec = make_spec("t.art", func=lambda: {"objective": 1.0})
        return [run_benchmark(spec, repeat=2, warmup=0)]

    def test_round_trip(self, tmp_path):
        results = self.run_two()
        path = tmp_path / "bench.json"
        write_artifact(path, results, profile={"name": "test"})
        loaded = read_artifact(path)
        built = build_artifact(results, profile={"name": "test"})
        assert loaded["benchmarks"] == built["benchmarks"]
        assert loaded["profile"] == {"name": "test"}
        entry = loaded["benchmarks"]["t.art"]
        assert entry["layer"] == "te"
        assert len(entry["seconds"]) == 2
        assert entry["meta"]["objective"] == 1.0
        assert loaded["schema"] == "repro.bench/1"

    def test_validation_rejects_malformed_artifacts(self, tmp_path):
        artifact = build_artifact(self.run_two(), profile={"name": "test"})
        for mutate in (
            lambda a: a.__setitem__("schema", "repro.bench/999"),
            lambda a: a.pop("benchmarks"),
            lambda a: a["benchmarks"]["t.art"].pop("seconds"),
            lambda a: a["benchmarks"]["t.art"].__setitem__("seconds", []),
        ):
            broken = json.loads(json.dumps(artifact))
            mutate(broken)
            with pytest.raises(ArtifactError):
                validate_artifact(broken)
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ArtifactError):
            read_artifact(bad)

    def test_git_sha_and_default_path(self, tmp_path):
        sha = git_sha()
        assert sha != "unknown" and len(sha) >= 7
        # Resolvable even when cwd is outside the repository.
        assert git_sha(cwd=str(tmp_path)) == sha
        assert default_artifact_path(str(tmp_path)).name == f"BENCH_{sha}.json"

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        for _ in range(3):
            write_artifact(path, self.run_two())
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_x.json"]
        read_artifact(path)  # validates

    def test_find_latest_artifact_by_created_stamp(self, tmp_path):
        old = tmp_path / "BENCH_old.json"
        new = tmp_path / "BENCH_new.json"
        write_artifact(old, self.run_two())
        write_artifact(new, self.run_two())
        stale = json.loads(old.read_text())
        fresh = json.loads(new.read_text())
        stale["created_unix"] = 1000.0
        fresh["created_unix"] = 2000.0
        old.write_text(json.dumps(stale))
        new.write_text(json.dumps(fresh))
        assert find_latest_artifact(tmp_path) == new
        # The stamp wins over mtime (old was rewritten last above --
        # rewrite new's bytes to make mtime order the *opposite*).
        assert find_latest_artifact(tmp_path).name == "BENCH_new.json"

    def test_find_latest_artifact_ignores_non_bench_files(self, tmp_path):
        (tmp_path / "notes.json").write_text("{}")
        with pytest.raises(ArtifactError, match="save one first"):
            find_latest_artifact(tmp_path)


def artifact_with(stats_by_name):
    benchmarks = {
        name: {
            "layer": "te",
            "seconds": [seconds],
            "stats": {
                "min": seconds, "median": seconds,
                "mean": seconds, "stddev": 0.0,
            },
            "metrics": {},
        }
        for name, seconds in stats_by_name.items()
    }
    return {"schema": "repro.bench/1", "benchmarks": benchmarks}


class TestCompare:
    def test_identical_artifacts_pass(self):
        artifact = artifact_with({"a": 0.1, "b": 0.2})
        report = compare_artifacts(artifact, artifact)
        assert report.ok and not report.regressions and not report.missing
        statuses = {d.name: d.status for d in report.deltas}
        assert statuses == {"a": "ok", "b": "ok"}

    def test_regression_beyond_ratio_fails(self):
        report = compare_artifacts(
            artifact_with({"a": 0.1}), artifact_with({"a": 0.21}),
            Thresholds(ratio=2.0),
        )
        assert not report.ok
        assert [d.name for d in report.regressions] == ["a"]
        assert "REGRESSION" in report.render() and "FAILED" in report.render()

    def test_at_threshold_is_not_a_regression(self):
        report = compare_artifacts(
            artifact_with({"a": 0.1}), artifact_with({"a": 0.2}),
            Thresholds(ratio=2.0),
        )
        assert report.ok

    def test_missing_benchmark_fails_new_is_informational(self):
        report = compare_artifacts(
            artifact_with({"a": 0.1, "gone": 0.1}),
            artifact_with({"a": 0.1, "fresh": 0.1}),
        )
        assert not report.ok
        assert [d.name for d in report.missing] == ["gone"]
        assert {d.name: d.status for d in report.deltas}["fresh"] == "new"

    def test_min_seconds_noise_floor_skips_fast_benchmarks(self):
        report = compare_artifacts(
            artifact_with({"a": 0.0001}), artifact_with({"a": 0.0009}),
            Thresholds(ratio=1.5, min_seconds=0.002),
        )
        assert report.ok
        assert report.deltas[0].status == "skipped-fast"

    def test_faster_is_reported_not_failed(self):
        report = compare_artifacts(
            artifact_with({"a": 0.3}), artifact_with({"a": 0.1}),
        )
        assert report.ok and report.deltas[0].status == "faster"

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            Thresholds(ratio=1.0)
        with pytest.raises(ValueError):
            Thresholds(min_seconds=-1.0)


class TestBenchCLI:
    def run_cli(self, argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_list_renders_catalogue(self):
        code, text = self.run_cli(["bench", "--list"])
        assert code == 0
        for name in (
            "bdd.build_apply", "te.tunnels.warm", "lp.sweep.threads",
            "shard.verify.sharded", "obs.span_disabled",
        ):
            assert name in text

    def test_empty_selection_is_a_usage_error(self):
        code, text = self.run_cli(["bench", "--filter", "nonexistent"])
        assert code == 2
        assert "no benchmarks match" in text

    def test_save_produces_a_valid_artifact(self, tmp_path):
        path = tmp_path / "out.json"
        code, text = self.run_cli([
            "bench", "--filter", "store.tunnels", "--repeat", "1",
            "--save", str(path),
        ])
        assert code == 0
        artifact = read_artifact(path)  # validates on read
        assert set(artifact["benchmarks"]) == {
            "store.tunnels.cold", "store.tunnels.warm",
        }
        assert str(path) in text

    def test_baseline_gate_fails_on_injected_2x_slowdown(self, tmp_path):
        path = tmp_path / "baseline.json"
        code, _ = self.run_cli([
            "bench", "--filter", "bdd", "--repeat", "2", "--save", str(path),
        ])
        assert code == 0
        artifact = read_artifact(path)
        for entry in artifact["benchmarks"].values():
            entry["stats"] = {k: v / 2 for k, v in entry["stats"].items()}
        path.write_text(json.dumps(artifact))
        code, text = self.run_cli([
            "bench", "--filter", "bdd", "--repeat", "2",
            "--baseline", str(path),
        ])
        assert code == 1
        assert "REGRESSION" in text and "FAILED" in text

    def test_baseline_gate_fails_on_missing_benchmarks(self, tmp_path):
        path = tmp_path / "baseline.json"
        self.run_cli([
            "bench", "--filter", "store.tunnels", "--repeat", "1",
            "--save", str(path),
        ])
        code, text = self.run_cli([
            "bench", "--filter", "store.tunnels.cold", "--repeat", "1",
            "--baseline", str(path),
        ])
        assert code == 1
        assert "MISSING" in text

    def test_self_compare_passes(self, tmp_path):
        path = tmp_path / "baseline.json"
        self.run_cli([
            "bench", "--filter", "store.tunnels", "--repeat", "1",
            "--save", str(path),
        ])
        code, text = self.run_cli(["bench", "--compare", str(path), str(path)])
        assert code == 0
        assert "ok" in text

    def test_bad_artifact_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, text = self.run_cli(["bench", "--compare", str(bad), str(bad)])
        assert code == 2
        assert "error" in text

    def test_baseline_without_path_discovers_latest(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.run_cli([
            "bench", "--filter", "store.tunnels.cold", "--repeat", "1",
            "--save", "BENCH_abc.json",
        ])
        # The subject is baseline *discovery*; a generous threshold
        # keeps single-iteration timing noise on a loaded machine from
        # turning the self-comparison into a flake.
        code, text = self.run_cli([
            "bench", "--filter", "store.tunnels.cold", "--repeat", "1",
            "--baseline", "--threshold", "5.0",
        ])
        assert code == 0
        assert "baseline: BENCH_abc.json" in text

    def test_baseline_without_path_errors_when_no_artifact(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code, text = self.run_cli([
            "bench", "--filter", "store.tunnels.cold", "--repeat", "1",
            "--baseline",
        ])
        assert code == 2
        assert "save one first" in text

    def test_compare_with_one_path_needs_an_older_artifact(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        self.run_cli([
            "bench", "--filter", "store.tunnels.cold", "--repeat", "1",
            "--save", "BENCH_abc.json",
        ])
        # The only artifact is CURRENT itself, never its own baseline.
        code, text = self.run_cli(["bench", "--compare", "BENCH_abc.json"])
        assert code == 2
        assert "save one first" in text

    def test_implicit_baseline_is_the_previous_artifact(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        run = ["bench", "--filter", "bdd.build", "--repeat", "1"]
        self.run_cli(run + ["--save", "BENCH_old.json"])
        old = json.loads(Path("BENCH_old.json").read_text())
        for entry in old["benchmarks"].values():
            entry["stats"] = {k: v / 10 for k, v in entry["stats"].items()}
        old["created_unix"] -= 100
        Path("BENCH_old.json").write_text(json.dumps(old))

        code, text = self.run_cli(
            run + ["--save", "BENCH_new.json", "--baseline"]
        )
        assert code == 1, text
        assert "baseline: BENCH_old.json" in text and "REGRESSION" in text
        code, text = self.run_cli(["bench", "--compare", "BENCH_new.json"])
        assert code == 1, text
        assert "baseline: BENCH_old.json" in text and "REGRESSION" in text

    def test_compare_with_three_paths_is_a_usage_error(self, tmp_path):
        code, text = self.run_cli(["bench", "--compare", "a", "b", "c"])
        assert code == 2
        assert "error" in text

    @pytest.mark.parametrize("stats", [
        {"min": 0.1, "mean": 0.1, "stddev": 0.0},
        {"min": 0.1, "median": "fast", "mean": 0.1, "stddev": 0.0},
    ], ids=["no-median", "non-numeric-median"])
    def test_artifact_without_numeric_median_is_a_usage_error(
        self, tmp_path, stats
    ):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(artifact_with({"a": 0.1})))
        broken = artifact_with({"a": 0.1})
        broken["benchmarks"]["a"]["stats"] = stats
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(broken))
        code, text = self.run_cli(["bench", "--compare", str(good), str(bad)])
        assert code == 2
        assert "error:" in text and "median" in text

    @pytest.mark.parametrize("flags", [
        ["--repeat", "0"], ["--warmup", "-1"], ["--threshold", "1.0"],
    ], ids=["repeat-0", "warmup-negative", "threshold-1"])
    def test_out_of_range_flag_is_a_usage_error(self, flags):
        code, text = self.run_cli(["bench", "--filter", "bdd.build"] + flags)
        assert code == 2
        assert text.startswith("error:")

    def test_store_benchmarks_are_registered(self):
        code, text = self.run_cli(["bench", "--list"])
        assert code == 0
        for name in ("store.tunnels.cold", "store.tunnels.warm"):
            assert name in text


class TestPairs:
    """Both sides of a pair compute the same answer; the counters show
    the fast path was taken."""

    def run(self, name):
        bench.discover()
        return run_benchmark(bench.get_spec(name), repeat=1, warmup=0)

    def test_tunnel_pair_agrees_and_only_the_cold_side_misses(self):
        cold = self.run("te.tunnels.cold")
        warm = self.run("te.tunnels.warm")
        assert warm.meta["objectives"] == cold.meta["objectives"]
        assert warm.metrics.get("tunnel_cache.hit", 0) > 0
        assert "tunnel_cache.miss" not in warm.metrics
        assert cold.metrics["tunnel_cache.miss"] >= cold.meta["intervals"]

    def test_threaded_sweep_matches_the_cold_sweep_exactly(self):
        cold = self.run("lp.sweep.cold")
        threads = self.run("lp.sweep.threads")
        assert threads.meta["objectives"] == cold.meta["objectives"]
        assert len(cold.meta["objectives"]) == cold.meta["points"]


class TestRepoLints:
    def test_docstring_lint_is_clean(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_docstrings.py")],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_doc_example_blocks_are_extracted(self):
        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            from run_doc_examples import extract_blocks
        finally:
            sys.path.remove(str(REPO_ROOT / "tools"))
        blocks = extract_blocks(REPO_ROOT / "docs" / "BENCHMARKS.md")
        languages = {b.language for b in blocks}
        assert "bash" in languages and "python" in languages
