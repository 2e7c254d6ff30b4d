"""The fuzz subsystem itself: schedule, registry, runner, minimizer.

``tests/test_fuzz_equivalence.py`` exercises the *oracles* (do the
systems under test agree?); this module exercises the *harness* -- that
the schedule is deterministic, crashes and timeouts are isolated into
structured records, the planted defect is caught and shrunk to a
byte-identical artifact, and every stored failure replays.
"""

import io
import json
import time

import pytest

from repro import fuzz
from repro.fuzz import generators, minimize, oracles, runner
from repro.fuzz.oracles import OracleFailure, OracleSpec, UnknownOracleError
from repro.fuzz.watchdog import CaseTimeout, call_with_timeout
from repro.resilience import faults
from repro.store import ArtifactStore

SEED = 7


def canonical_payload(failure):
    """Sorted-key JSON of the artifact body: the byte-identity witness."""
    return json.dumps(failure.payload(), sort_keys=True)


# ----------------------------------------------------------------------
# Generators / schedule
# ----------------------------------------------------------------------
class TestSchedule:
    def test_case_seed_deterministic_and_distinct(self):
        assert generators.case_seed(1, 2, "te") == generators.case_seed(
            1, 2, "te"
        )
        seeds = {
            generators.case_seed(s, i, k)
            for s in (0, 1)
            for i in range(5)
            for k in generators.KINDS
        }
        assert len(seeds) == 2 * 5 * len(generators.KINDS)

    @pytest.mark.parametrize("kind", generators.KINDS)
    def test_generate_case_replays_from_triple(self, kind):
        one = generators.generate_case(SEED, 3, kind)
        two = generators.generate_case(SEED, 3, kind)
        assert one == two
        assert one.data == two.data

    def test_generate_case_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            generators.generate_case(SEED, 0, "quantum")

    def test_te_case_materializes(self):
        case = generators.generate_case(SEED, 0, "te")
        topo, traffic, scales = generators.materialize_te(case.data)
        assert topo.num_nodes == len(case.data["nodes"])
        assert traffic.total_demand > 0
        assert scales == sorted(scales)

    def test_dataplane_case_materializes(self):
        case = generators.generate_case(SEED, 0, "dataplane")
        dataset, updates = generators.materialize_dataplane(case.data)
        assert dataset.topology.num_nodes == len(case.data["nodes"])
        assert len(updates) == len(case.data["updates"])

    def test_case_sizes_counts_elements(self):
        case = generators.generate_case(SEED, 0, "te")
        sizes = generators.case_sizes(case.data)
        assert sizes["nodes"] == len(case.data["nodes"])
        assert sizes["demands"] == len(case.data["demands"])


# ----------------------------------------------------------------------
# Oracle registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_unknown_oracle_suggests_close_matches(self):
        with pytest.raises(UnknownOracleError) as excinfo:
            oracles.get_spec("te.warm-equals-cool")
        assert "te.warm-equals-cold" in excinfo.value.suggestions

    def test_register_unregister_roundtrip(self):
        spec = OracleSpec("test.probe", "te", lambda case: None, "probe")
        oracles.register(spec)
        try:
            assert "test.probe" in oracles.oracle_names()
            with pytest.raises(ValueError):
                oracles.register(spec)
            oracles.register(spec, replace=True)
        finally:
            assert oracles.unregister("test.probe") is spec
        assert "test.probe" not in oracles.oracle_names()

    def test_register_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            oracles.register(
                OracleSpec("test.bad-kind", "quantum", lambda case: None)
            )

    def test_run_oracle_rejects_kind_mismatch(self):
        case = generators.generate_case(SEED, 0, "dataplane")
        with pytest.raises(ValueError):
            oracles.run_oracle("te.bounds", case)

    def test_render_table_lists_every_oracle(self):
        table = oracles.render_table()
        for name in oracles.oracle_names():
            assert name in table


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_returns_value_inline_and_threaded(self):
        assert call_with_timeout(lambda: 42, None) == 42
        assert call_with_timeout(lambda: 42, 5.0) == 42

    def test_propagates_exception(self):
        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            call_with_timeout(boom, 5.0)

    def test_times_out_and_abandons(self):
        with pytest.raises(CaseTimeout) as excinfo:
            call_with_timeout(lambda: time.sleep(5), 0.05)
        assert excinfo.value.seconds == 0.05


# ----------------------------------------------------------------------
# Failure classification
# ----------------------------------------------------------------------
class TestClassification:
    def test_divergence_timeout_crash(self):
        assert minimize.classify_failure(OracleFailure("o", "m")) == (
            "divergence", "OracleFailure",
        )
        assert minimize.classify_failure(CaseTimeout(1.0)) == (
            "timeout", "CaseTimeout",
        )
        assert minimize.classify_failure(RuntimeError("x")) == (
            "crash", "RuntimeError",
        )


# ----------------------------------------------------------------------
# Runner: isolation, exit semantics, budget
# ----------------------------------------------------------------------
def _probe(name, check):
    return OracleSpec(name, "dataplane", check, "test probe")


class TestRunner:
    def test_clean_sweep_is_ok(self):
        report = fuzz.run_fuzz(
            seed=SEED, cases=2, oracle_filter=["ap.vs-apkeep"],
            minimize=False,
        )
        assert report.ok
        assert report.cases_run == 2
        assert report.oracle_runs == 2
        assert "no failures" in report.render()

    def test_crashing_oracle_is_isolated(self):
        def crash(case):
            raise RuntimeError("oracle blew up")

        good_runs = []
        specs = [
            _probe("test.crasher", crash),
            _probe("test.good", lambda case: good_runs.append(case.index)),
        ]
        report = fuzz.run_fuzz(
            seed=SEED, cases=3, oracle_filter=specs, minimize=False,
        )
        # The crash never killed the sweep: the good oracle ran every case.
        assert good_runs == [0, 1, 2]
        assert not report.ok
        assert len(report.failures) == 3
        assert {f.failure for f in report.failures} == {"crash"}
        assert report.failures[0].error == "RuntimeError"

    def test_hanging_oracle_times_out(self):
        def hang(case):
            time.sleep(5)

        report = fuzz.run_fuzz(
            seed=SEED, cases=1, oracle_filter=[_probe("test.hang", hang)],
            case_timeout=0.05, minimize=False,
        )
        assert len(report.failures) == 1
        assert report.failures[0].failure == "timeout"
        assert report.failures[0].error == "CaseTimeout"

    def test_budget_stops_scheduling(self):
        def slow(case):
            time.sleep(0.05)

        report = fuzz.run_fuzz(
            seed=SEED, budget_seconds=0.01,
            oracle_filter=[_probe("test.slow", slow)], minimize=False,
        )
        assert report.stopped_on_budget
        # One batch in flight finishes; nothing more is scheduled.
        assert report.cases_run <= 2

    def test_injected_task_faults_become_crash_records(self):
        plan = faults.FaultPlan(seed=1, rate=1.0, sites=("parallel.task",))
        with faults.chaos(plan):
            report = fuzz.run_fuzz(
                seed=SEED, cases=2, workers=2,
                oracle_filter=[_probe("test.ok", lambda case: None)],
                minimize=False,
            )
        assert len(report.failures) == 2
        assert {f.failure for f in report.failures} == {"crash"}

    def test_warm_session_chaos_never_masks(self):
        # Full-rate faults at the reduced-solve site degrade every warm
        # solve to cold -- and the warm-equals-cold oracle stays clean.
        plan = faults.FaultPlan(
            seed=1, rate=1.0, sites=("lp.session.warm",)
        )
        with faults.chaos(plan):
            report = fuzz.run_fuzz(
                seed=3, cases=1, oracle_filter=["te.warm-equals-cold"],
                minimize=False,
            )
        assert report.ok, report.render()


# ----------------------------------------------------------------------
# Planted defect: catch, shrink deterministically, replay
# ----------------------------------------------------------------------
@pytest.fixture
def planted():
    oracles.register_planted_defect(replace=True)
    yield oracles.PLANTED_ORACLE
    oracles.unregister(oracles.PLANTED_ORACLE)


def _planted_sweep(store):
    return fuzz.run_fuzz(
        seed=SEED, cases=4, oracle_filter=[oracles.PLANTED_ORACLE],
        store=store,
    )


class TestPlantedDefect:
    def test_caught_shrunk_and_deterministic(self, planted, tmp_path):
        report_a = _planted_sweep(ArtifactStore(tmp_path / "a"))
        report_b = _planted_sweep(ArtifactStore(tmp_path / "b"))
        assert not report_a.ok
        failure = report_a.failures[0]
        assert failure.failure == "divergence"
        assert failure.shrink_attempts > 0
        before = sum(failure.sizes_before.values())
        after = sum(failure.sizes_after.values())
        assert after < before
        # Same seed window, independent runs and stores: byte-identical
        # minimized artifacts.
        assert canonical_payload(failure) == canonical_payload(
            report_b.failures[0]
        )

    def test_minimized_case_still_fails_and_replays(self, planted, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        report = _planted_sweep(store)
        failure = report.failures[0]
        assert failure.store_key in [k for k, _ in fuzz.list_failures(store)]
        outcome = fuzz.reproduce(store, failure.store_key)
        assert outcome.reproduced
        assert outcome.failure == "divergence"
        live = fuzz.reproduce_live(
            failure.seed, failure.case_index, failure.oracle
        )
        assert live.reproduced

    def test_reproduce_unknown_key_raises(self, tmp_path):
        with pytest.raises(KeyError):
            fuzz.reproduce(ArtifactStore(tmp_path / "s"), "fuzz/1/0/0/nope")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def run_cli(self, argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_clean_run_exits_zero(self, tmp_path):
        code, text = self.run_cli([
            "fuzz", "run", "--seed", str(SEED), "--cases", "1",
            "--oracle", "ap.vs-apkeep", "--store", str(tmp_path / "s"),
        ])
        assert code == 0
        assert "no failures" in text

    def test_oracle_list(self):
        code, text = self.run_cli(["fuzz", "run", "--oracle", "list"])
        assert code == 0
        assert "te.warm-equals-cold" in text

    def test_unknown_oracle_is_usage_error(self):
        code, text = self.run_cli(["fuzz", "run", "--oracle", "nosuch"])
        assert code == 2
        assert "unknown fuzz oracle" in text

    def test_planted_run_ls_repro_roundtrip(self, tmp_path):
        store_dir = str(tmp_path / "s")
        code, text = self.run_cli([
            "fuzz", "run", "--seed", str(SEED), "--cases", "4",
            "--plant-defect", "--oracle", oracles.PLANTED_ORACLE,
            "--store", store_dir,
        ])
        oracles.unregister(oracles.PLANTED_ORACLE)
        assert code == 1
        assert "FAIL" in text and "repro:" in text

        code, text = self.run_cli(["fuzz", "ls", "--store", store_dir])
        assert code == 0
        key = text.splitlines()[0].split()[0]
        assert key.startswith("fuzz/1/")

        # Replay in a registry without the planted oracle: the runner
        # re-registers it on demand, as a fresh process would need.
        code, text = self.run_cli([
            "fuzz", "repro", key, "--store", store_dir,
        ])
        oracles.unregister(oracles.PLANTED_ORACLE)
        assert code == 0
        assert "reproduced" in text

    def test_repro_without_key_or_triple_is_usage_error(self):
        code, text = self.run_cli(["fuzz", "repro"])
        assert code == 2

