"""The service tier: job specs, worker pools, daemon, client, loadgen.

Contracts under test:

* **Determinism** -- a job's payload is a pure function of its spec;
  a direct :func:`execute_job` call and spawn-worker execution agree
  byte for byte, and the store key is stable across processes.
* **Isolation** -- a worker hard-crash (``os._exit``) or an over-budget
  job kills only that worker: the daemon records a structured failure,
  respawns the slot, and keeps serving.
* **Admission control** -- a full queue rejects with a structured
  ``queue-full`` document (HTTP 429) immediately, never by hanging; a
  store hit at admission completes the job without touching the queue.
* **Ordering** -- batch execution returns outcomes in submission order
  regardless of completion order.
"""

import threading
import time

import pytest

from repro import obs
from repro.fuzz import generators as fuzz_generators
from repro.fuzz import oracles as fuzz_oracles
from repro.serve import (
    JOB_KINDS,
    JobSpec,
    JobTimeoutError,
    QueueFullError,
    ReproDaemon,
    ServeAPIError,
    ServeClient,
    WorkerPool,
    execute_job,
    execute_job_stored,
    job_key,
    loadgen_spec,
    run_jobs,
    run_loadgen,
)
from repro.store import ArtifactStore

#: One solve spec reused across tests so repeated executions exercise
#: the memoization path.
SOLVE_PARAMS = {
    "instance": "B4", "solver": "pf4", "commodities": 10, "load": 0.1,
}


# ----------------------------------------------------------------------
# Job specs and execution
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_validate_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            JobSpec("quantum", {}).validate()

    def test_validate_rejects_unknown_campaign_paper(self):
        with pytest.raises(ValueError):
            JobSpec("campaign", {"papers": ["ncflow", "nope"]}).validate()

    def test_validate_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            JobSpec("probe", {}, budget_seconds=0).validate()

    def test_canonical_params_fill_defaults(self):
        params = JobSpec("solve", {}).canonical_params()
        assert params["instance"] == "B4"
        assert params["solver"] == "pf4"

    def test_key_ignores_param_order_but_not_values(self):
        a = JobSpec("solve", {"instance": "B4", "solver": "pf4"})
        b = JobSpec("solve", {"solver": "pf4", "instance": "B4"})
        c = JobSpec("solve", {"instance": "Internet2", "solver": "pf4"})
        assert job_key(a) == job_key(b)
        assert job_key(a) != job_key(c)
        assert job_key(a).startswith("serve/1/solve/")

    def test_probe_jobs_have_no_store_key(self):
        assert job_key(JobSpec("probe", {"action": "ok"})) is None

    def test_roundtrip_through_dict(self):
        spec = JobSpec("verify", {"dataset": "Internet2"}, seed=3,
                       budget_seconds=9.0)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_execute_deterministic(self):
        spec = JobSpec("solve", SOLVE_PARAMS)
        assert execute_job(spec) == execute_job(spec)

    def test_execute_verify(self):
        payload = execute_job(JobSpec("verify", {"dataset": "Internet2"}))
        assert payload["ok"] and payload["loops"] == 0

    def test_execute_stored_memoizes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = JobSpec("solve", SOLVE_PARAMS)
        first = execute_job_stored(spec, store)
        second = execute_job_stored(spec, store)
        assert first == second
        assert store.get(job_key(spec)) is not None

    def test_failed_probe_raises_and_is_not_stored(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = JobSpec("probe", {"action": "error"})
        with pytest.raises(RuntimeError):
            execute_job_stored(spec, store)
        assert len(store.entries()) == 0


# ----------------------------------------------------------------------
# Pools
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_run_jobs_preserves_submission_order(self, tmp_path):
        # The first job finishes last: outcomes still come back in
        # submission order.
        specs = [
            JobSpec("probe", {"action": "sleep", "seconds": 0.5}, seed=0),
            JobSpec("probe", {"action": "ok"}, seed=1),
            JobSpec("probe", {"action": "ok"}, seed=2),
        ]
        outcomes = run_jobs(specs, workers=2, store_root=str(tmp_path))
        assert [o.job_id for o in outcomes] == [0, 1, 2]
        assert [o.payload["seed"] for o in outcomes] == [0, 1, 2]

    def test_error_job_is_structured_not_fatal(self, tmp_path):
        outcomes = run_jobs(
            [JobSpec("probe", {"action": "error"}),
             JobSpec("probe", {"action": "ok"})],
            workers=1, store_root=str(tmp_path),
        )
        assert not outcomes[0].ok
        assert outcomes[0].failure == "error"
        assert outcomes[0].error == "RuntimeError"
        assert outcomes[1].ok

    def test_concurrent_batches_on_one_pool_keep_their_outcomes(
        self, tmp_path
    ):
        # Every batch numbers its jobs from 0: interleaved on one pool,
        # callers would take each other's outcomes (or wait forever).
        pool = WorkerPool(workers=1, store_root=str(tmp_path)).start()
        seen = {}

        def batch(seed):
            spec = JobSpec("probe", {"action": "ok"}, seed=seed)
            seen[seed] = run_jobs([spec], pool=pool)[0].payload["seed"]

        threads = [
            threading.Thread(target=batch, args=(seed,), daemon=True)
            for seed in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert seen == {seed: seed for seed in range(4)}
        finally:
            pool.shutdown()

    def test_multiprocess_matches_inprocess_payloads(self, tmp_path):
        specs = [
            JobSpec("solve", SOLVE_PARAMS),
            JobSpec("verify", {"dataset": "Internet2"}),
            JobSpec("probe", {"action": "ok"}, seed=7),
            JobSpec("probe", {"action": "spin", "iterations": 2000},
                    seed=11),
        ]
        local = [execute_job(spec) for spec in specs]
        mp = run_jobs(specs, workers=2, store_root=str(tmp_path))
        assert all(o.ok for o in mp)
        assert [o.payload for o in mp] == local

    def test_survives_worker_hard_crash(self, tmp_path):
        pool = WorkerPool(workers=1, store_root=str(tmp_path))
        pool.start()
        try:
            pool.submit(0, JobSpec("probe", {"action": "crash"}))
            outcome = self._drain_one(pool)
            assert not outcome.ok
            assert outcome.failure == "crash"
            assert outcome.error == "WorkerCrashed"
            assert "13" in outcome.message
            assert pool.restarts == 1
            # The respawned worker still serves jobs.
            pool.submit(1, JobSpec("probe", {"action": "ok"}, seed=4))
            outcome = self._drain_one(pool)
            assert outcome.ok and outcome.payload["seed"] == 4
        finally:
            pool.shutdown()

    def test_over_budget_job_is_killed_and_recorded(self, tmp_path):
        pool = WorkerPool(workers=1, store_root=str(tmp_path))
        pool.start()
        try:
            pool.submit(0, JobSpec("probe",
                                   {"action": "sleep", "seconds": 30},
                                   budget_seconds=0.5))
            outcome = self._drain_one(pool)
            assert not outcome.ok
            assert outcome.failure == "budget"
            assert outcome.error == "JobBudgetExceeded"
            assert pool.restarts == 1
        finally:
            pool.shutdown()

    def test_run_jobs_kills_over_budget_job_and_finishes_batch(
        self, tmp_path
    ):
        # One seat: the job queued behind the over-budget one only runs
        # because that job is killed and the seat respawned, long before
        # its 30 s sleep would have ended.
        started = time.monotonic()
        outcomes = run_jobs(
            [JobSpec("probe", {"action": "sleep", "seconds": 30},
                     budget_seconds=0.2),
             JobSpec("probe", {"action": "ok"}, seed=3)],
            workers=1, store_root=str(tmp_path),
        )
        assert time.monotonic() - started < 20
        assert not outcomes[0].ok
        assert outcomes[0].failure == "budget"
        assert outcomes[1].ok and outcomes[1].payload["seed"] == 3

    def test_saturated_pool_rejects_submit(self, tmp_path):
        pool = WorkerPool(workers=1, store_root=str(tmp_path))
        pool.start()
        try:
            pool.submit(0, JobSpec("probe",
                                   {"action": "sleep", "seconds": 5}))
            with pytest.raises(RuntimeError):
                pool.submit(1, JobSpec("probe", {"action": "ok"}))
        finally:
            pool.shutdown()

    @staticmethod
    def _drain_one(pool, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            outcomes = pool.poll(0.1)
            if outcomes:
                return outcomes[0]
        raise AssertionError("no outcome within timeout")


# ----------------------------------------------------------------------
# Daemon + client (spawn worker pool)
# ----------------------------------------------------------------------
class TestDaemon:
    def test_submit_wait_result_roundtrip(self):
        with ReproDaemon(workers=2) as daemon:
            client = ServeClient(daemon.url)
            assert client.health()["status"] == "ok"
            record = client.submit("solve", SOLVE_PARAMS)
            final = client.wait(record["id"], timeout=60)
            assert final["state"] == "completed"
            payload = client.result(final["id"])["payload"]
            assert payload["status"] == "optimal"

    def test_queue_full_rejection_is_structured_not_a_hang(self):
        with ReproDaemon(workers=1,
                         queue_limit=1) as daemon:
            client = ServeClient(daemon.url)
            rejected = None
            accepted = []
            started = time.monotonic()
            for index in range(6):
                try:
                    accepted.append(client.submit(
                        "probe", {"action": "sleep", "seconds": 0.5},
                        seed=index,
                    ))
                except ServeAPIError as exc:
                    rejected = exc
                    break
            # A rejection arrived quickly (no hang) and is structured.
            assert rejected is not None
            assert time.monotonic() - started < 5.0
            assert rejected.status == 429 and rejected.queue_full
            assert rejected.payload["error"] == "queue-full"
            assert rejected.payload["queue_limit"] == 1
            # Already-accepted jobs still drain to completion.
            for record in accepted:
                assert client.wait(record["id"],
                                   timeout=60)["state"] == "completed"

    def test_queue_full_raises_locally_too(self):
        daemon = ReproDaemon(workers=1, queue_limit=1)
        daemon.start()
        try:
            # Sleep jobs saturate the single worker and then the
            # one-slot queue; within a handful of submissions one must
            # be refused with the structured payload.
            with pytest.raises(QueueFullError) as excinfo:
                for index in range(6):
                    daemon.submit(
                        "probe", {"action": "sleep", "seconds": 1},
                        seed=index,
                    )
            assert excinfo.value.payload["error"] == "queue-full"
        finally:
            daemon.stop()

    def test_failed_job_result_is_409(self):
        with ReproDaemon(workers=1) as daemon:
            client = ServeClient(daemon.url)
            record = client.submit("probe", {"action": "error"})
            final = client.wait(record["id"], timeout=60)
            assert final["state"] == "failed"
            assert final["failure_kind"] == "error"
            with pytest.raises(ServeAPIError) as excinfo:
                client.result(record["id"])
            assert excinfo.value.status == 409
            assert excinfo.value.payload["error"] == "job-not-completed"

    def test_bad_submission_is_400(self):
        with ReproDaemon(workers=1) as daemon:
            with pytest.raises(ServeAPIError) as excinfo:
                ServeClient(daemon.url).submit("quantum", {})
            assert excinfo.value.status == 400

    def test_default_budget_applies_to_unbudgeted_jobs(self):
        with ReproDaemon(workers=1,
                         default_budget=0.3) as daemon:
            client = ServeClient(daemon.url)
            record = client.submit("probe",
                                   {"action": "sleep", "seconds": 30})
            final = client.wait(record["id"], timeout=60)
            assert final["state"] == "failed"
            assert final["failure_kind"] == "budget"

    def test_repeat_submission_hits_store_at_admission(self, tmp_path):
        obs.metrics.reset()
        store = ArtifactStore(tmp_path)
        with ReproDaemon(workers=1,
                         store=store) as daemon:
            client = ServeClient(daemon.url)
            first = client.submit("verify", {"dataset": "Internet2"})
            assert client.wait(first["id"],
                               timeout=120)["state"] == "completed"
            again = client.submit("verify", {"dataset": "Internet2"})
            # Answered at admission: terminal immediately, marked cached.
            assert again["state"] == "completed"
            assert again["cached"] is True
        snapshot = obs.metrics.snapshot()
        hits = sum(
            snap["value"] for name, snap in snapshot.items()
            if name.startswith("store.hit")
            and snap.get("type") == "counter" and "labels" not in snap
        )
        assert hits > 0

    def test_cached_admission_bypasses_queue_limit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with ReproDaemon(workers=1, queue_limit=1,
                         store=store) as daemon:
            client = ServeClient(daemon.url)
            warm = client.submit("verify", {"dataset": "Internet2"})
            assert client.wait(warm["id"],
                               timeout=120)["state"] == "completed"
            # Saturate the worker and fill the queue until a fresh
            # submission is refused.
            saturated = False
            for index in range(6):
                try:
                    client.submit(
                        "probe", {"action": "sleep", "seconds": 1},
                        seed=index,
                    )
                except ServeAPIError as exc:
                    assert exc.queue_full
                    saturated = True
                    break
            assert saturated
            # The cached job is still admitted and completes instantly.
            cached = client.submit("verify", {"dataset": "Internet2"})
            assert cached["state"] == "completed" and cached["cached"]

    def test_jobs_listing_and_stats(self):
        with ReproDaemon(workers=1) as daemon:
            client = ServeClient(daemon.url)
            record = client.submit("probe", {"action": "ok"})
            client.wait(record["id"], timeout=60)
            listing = client.jobs()
            assert listing and listing[0]["id"] == record["id"]
            stats = client.stats()
            assert stats["workers"] == 1
            assert stats["jobs"]["completed"] >= 1

    def test_metrics_endpoint_exposes_serve_families(self):
        obs.metrics.reset()
        with ReproDaemon(workers=1) as daemon:
            client = ServeClient(daemon.url)
            record = client.submit("probe", {"action": "ok"})
            client.wait(record["id"], timeout=60)
            text = client.metrics_text()
        assert 'serve_jobs{state="completed"}' in text
        assert "serve_job_seconds" in text

    def test_shutdown_endpoint_requests_stop(self):
        daemon = ReproDaemon(workers=1)
        daemon.start()
        try:
            reply = ServeClient(daemon.url).shutdown()
            assert reply["status"] == "stopping"
            assert daemon.shutdown_requested.wait(timeout=5.0)
        finally:
            daemon.stop()

    def test_daemon_survives_worker_crash(self, tmp_path):
        # The headline resilience claim, through the whole stack: a job
        # that hard-kills its spawn worker is recorded as failed and
        # the daemon keeps answering.
        with ReproDaemon(workers=1,
                         store=ArtifactStore(tmp_path)) as daemon:
            client = ServeClient(daemon.url)
            record = client.submit("probe", {"action": "crash"})
            final = client.wait(record["id"], timeout=120)
            assert final["state"] == "failed"
            assert final["failure_kind"] == "crash"
            after = client.submit("probe", {"action": "ok"}, seed=9)
            assert client.wait(after["id"],
                               timeout=120)["state"] == "completed"
            assert client.stats()["worker_restarts"] == 1


# ----------------------------------------------------------------------
# Loadgen
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_specs_are_deterministic_and_valid(self):
        for kind in ("mix", "probe", "solve", "verify", "campaign"):
            for index in range(10):
                spec = loadgen_spec(kind, index)
                spec.validate()
                assert spec == loadgen_spec(kind, index)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            loadgen_spec("quantum", 0)

    def test_run_against_live_daemon(self, tmp_path):
        with ReproDaemon(workers=2,
                         store=ArtifactStore(tmp_path)) as daemon:
            report = run_loadgen(daemon.url, jobs=15, concurrency=4,
                                 timeout=120)
        assert report.ok
        assert report.completed == 15
        assert report.jobs_per_second > 0
        # The mix repeats specs, so with a store some jobs were cached.
        assert report.cached > 0
        assert report.percentile(99) >= report.percentile(50) >= 0
        assert "jobs/s" in report.render()

    def test_rejections_are_retried_not_lost(self):
        with ReproDaemon(workers=1,
                         queue_limit=1) as daemon:
            report = run_loadgen(daemon.url, jobs=10, concurrency=5,
                                 kind="probe", timeout=120)
        assert report.completed == 10
        assert report.rejections > 0


# ----------------------------------------------------------------------
# Fuzz integration (the campaign differential oracle)
# ----------------------------------------------------------------------
class TestCampaignOracle:
    def test_campaign_case_generates_and_materializes(self):
        case = fuzz_generators.generate_case(7, 0, "campaign")
        assert case.data["papers"]
        spec = fuzz_generators.materialize_campaign(case.data)
        spec.validate()
        assert spec.kind == "campaign"
        sizes = fuzz_generators.case_sizes(case.data)
        assert sizes["papers"] == len(case.data["papers"])

    def test_oracle_is_registered_for_campaign_kind(self):
        names = [
            spec.name
            for spec in fuzz_oracles.specs_for_kind("campaign")
        ]
        assert "campaign.multiprocess-vs-inprocess" in names

    def test_oracle_passes_on_schedule_case(self):
        case = fuzz_generators.generate_case(7, 0, "campaign")
        fuzz_oracles.run_oracle(
            "campaign.multiprocess-vs-inprocess", case
        )
