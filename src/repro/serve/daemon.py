"""The reproduction daemon: HTTP job API, queue, scheduler, metrics.

:class:`ReproDaemon` is the long-lived half of ``repro serve``.  It
owns three cooperating pieces:

* an **HTTP API** on a stdlib :class:`~http.server.ThreadingHTTPServer`
  (the :mod:`repro.obs.http` pattern: bind on the caller's thread so a
  busy port raises synchronously, handlers reach the daemon through a
  back-pointer on the server object);
* an **admission-controlled job queue**: submissions past the queue
  depth limit are rejected with a structured 429 (:class:`QueueFullError`)
  instead of queueing unboundedly, and memoizable jobs whose result is
  already in the artifact store complete at admission time without
  touching a worker (``cached=True``, a ``store.hit``);
* a **scheduler thread** dispatching queued jobs in submission order to
  the worker pool's idle slots and folding
  :class:`~repro.serve.pool.JobOutcome` records back into
  :class:`~repro.serve.jobs.JobRecord` state.

Routes::

    POST /jobs             submit {"kind", "params", "seed", "budget_seconds"}
    GET  /jobs             job listing (most recent first)
    GET  /jobs/<id>        one job record
    GET  /jobs/<id>/result the completed job's payload
    GET  /metrics          Prometheus text (repro.obs registry)
    GET  /stats            daemon stats JSON (states, queue, workers)
    GET  /health           {"status": "ok"} liveness probe
    POST /shutdown         request a clean daemon stop

Telemetry is live throughout: ``serve.jobs{state=...}`` counters count
every lifecycle transition, ``serve.queue_depth`` gauges the waiting
line, and ``serve.job_seconds`` (a reservoir histogram) carries the
p50/p95/p99 job latency the bench layer and ``repro loadgen`` report.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional

from repro import obs
from repro.obs.http import prometheus_text
from repro.serve.jobs import JobRecord, JobSpec
from repro.serve.pool import DEFAULT_WORKERS, WorkerPool
from repro.store import ArtifactStore

#: Default admission-control queue depth limit.
DEFAULT_QUEUE_LIMIT = 64

#: Default port for ``repro serve`` (0 picks a free port).
DEFAULT_PORT = 8642


class QueueFullError(RuntimeError):
    """Admission control rejected a submission (structured, never a hang).

    Carries the JSON payload the HTTP layer returns with status 429,
    so in-process callers and HTTP clients see the same shape.
    """

    def __init__(self, queue_depth: int, queue_limit: int):
        self.payload = {
            "error": "queue-full",
            "queue_depth": queue_depth,
            "queue_limit": queue_limit,
        }
        super().__init__(
            f"job queue is full ({queue_depth}/{queue_limit}); retry later"
        )


class _ServeHandler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`ReproDaemon` via the server
    object (``self.server.daemon_ref``), the :mod:`repro.obs.http`
    idiom."""

    server_version = "repro-serve/1"

    def _send(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, doc: object) -> None:
        self._send(status, "application/json", json.dumps(doc))

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        daemon: "ReproDaemon" = self.server.daemon_ref  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            self._send(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                prometheus_text(obs.metrics.snapshot()),
            )
        elif path == "/health":
            self._send_json(200, {"status": "ok", "workers": daemon.workers})
        elif path == "/stats":
            self._send_json(200, daemon.stats())
        elif path == "/jobs":
            self._send_json(200, {"jobs": daemon.list_jobs()})
        elif path.startswith("/jobs/"):
            parts = [part for part in path.split("/") if part]
            try:
                job_id = int(parts[1])
            except (IndexError, ValueError):
                self._send_json(404, {"error": "not-found"})
                return
            record = daemon.job(job_id)
            if record is None:
                self._send_json(404, {"error": "unknown-job", "id": job_id})
            elif len(parts) == 2:
                self._send_json(200, record.to_dict())
            elif len(parts) == 3 and parts[2] == "result":
                if record.state != "completed":
                    self._send_json(409, {
                        "error": "job-not-completed",
                        "id": job_id,
                        "state": record.state,
                        "failure_kind": record.failure_kind,
                        "message": record.message,
                    })
                else:
                    self._send_json(200, record.to_dict(include_payload=True))
            else:
                self._send_json(404, {"error": "not-found"})
        else:
            self._send_json(404, {"error": "not-found"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        daemon: "ReproDaemon" = self.server.daemon_ref  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        if path == "/shutdown":
            daemon.request_shutdown()
            self._send_json(200, {"status": "stopping"})
            return
        if path != "/jobs":
            self._send_json(404, {"error": "not-found"})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            doc = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(doc, dict):
                raise ValueError("request body must be a JSON object")
            spec = JobSpec.from_dict(doc)
            record = daemon.submit_spec(spec)
        except QueueFullError as exc:
            self._send_json(429, exc.payload)
            return
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": "bad-request", "message": str(exc)})
            return
        self._send_json(201, record.to_dict())

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr logging (the metrics tell the story)."""


class ReproDaemon:
    """The long-lived reproduction service: queue, pool, HTTP, metrics.

    Jobs run on a spawn :class:`~repro.serve.pool.WorkerPool` of
    ``workers`` crash-isolated processes.  ``store`` attaches the
    artifact store used both for admission-time memoization in the
    daemon and for content-addressed result writes in the workers.
    ``port=0`` binds a free port (read :attr:`url` after :meth:`start`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = DEFAULT_WORKERS,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        default_budget: Optional[float] = None,
        store: Optional[ArtifactStore] = None,
    ):
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.host = host
        self.workers = workers
        self.queue_limit = queue_limit
        self.default_budget = default_budget
        self.store = store
        self._requested_port = port
        self._pool = WorkerPool(
            workers=workers,
            store_root=str(store.root) if store is not None else None,
        )
        self._jobs: Dict[int, JobRecord] = {}
        self._queue: List[int] = []
        self._next_id = 1
        self._lock = threading.Lock()
        self._wakeup = threading.Event()
        self._stop = threading.Event()
        self.shutdown_requested = threading.Event()
        self._scheduler: Optional[threading.Thread] = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        """Base URL of the running (or configured) service."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproDaemon":
        """Bind HTTP, start the pool and scheduler; returns ``self``.

        Binding happens on the caller's thread so a port-in-use
        ``OSError`` surfaces synchronously, before any worker spawns.
        """
        if self._httpd is not None:
            raise RuntimeError("ReproDaemon is already running")
        httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), _ServeHandler
        )
        httpd.daemon_threads = True
        httpd.daemon_ref = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._started_at = time.time()
        self._pool.start()
        self._stop.clear()
        self._scheduler = threading.Thread(
            target=self._schedule_loop, name="repro-serve-scheduler",
            daemon=True,
        )
        self._scheduler.start()
        self._http_thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve-http",
            daemon=True,
        )
        self._http_thread.start()
        obs.metrics.gauge("serve.workers").set(self.workers)
        return self

    def request_shutdown(self) -> None:
        """Mark the daemon for shutdown (``POST /shutdown``); the owner
        of the daemon object observes :attr:`shutdown_requested` and
        calls :meth:`stop` -- the HTTP handler must not tear down the
        server that is serving it."""
        self.shutdown_requested.set()

    def stop(self) -> None:
        """Stop HTTP, the scheduler, and the pool (idempotent)."""
        httpd, http_thread = self._httpd, self._http_thread
        self._httpd = None
        self._http_thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if http_thread is not None:
            http_thread.join(timeout=5.0)
        self._stop.set()
        self._wakeup.set()
        if self._scheduler is not None:
            self._scheduler.join(timeout=5.0)
            self._scheduler = None
        self._pool.shutdown()

    def __enter__(self) -> "ReproDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission and queries
    # ------------------------------------------------------------------
    def submit(self, kind: str, params: Optional[Dict] = None,
               seed: int = 0,
               budget_seconds: Optional[float] = None) -> JobRecord:
        """Convenience wrapper building a :class:`JobSpec` and submitting."""
        return self.submit_spec(JobSpec(
            kind=kind, params=params or {}, seed=seed,
            budget_seconds=budget_seconds,
        ))

    def submit_spec(self, spec: JobSpec) -> JobRecord:
        """Admit ``spec``: validate, memo-check, enqueue (or reject).

        Raises ``ValueError`` on a malformed spec and
        :class:`QueueFullError` when the queue is at its depth limit.
        A store hit completes the job here, at admission, marked
        ``cached`` -- repeat submissions are near-free by design.
        """
        if spec.budget_seconds is None and self.default_budget is not None:
            spec = JobSpec(kind=spec.kind, params=spec.params,
                           seed=spec.seed,
                           budget_seconds=self.default_budget)
        spec.validate()
        cached_payload = None
        key = spec.key()
        if self.store is not None and key is not None:
            cached_payload = self.store.get(key)
        with self._lock:
            if cached_payload is None and len(self._queue) >= self.queue_limit:
                obs.metrics.counter("serve.jobs", state="rejected").inc()
                raise QueueFullError(len(self._queue), self.queue_limit)
            job_id = self._next_id
            self._next_id += 1
            record = JobRecord(job_id=job_id, spec=spec)
            self._jobs[job_id] = record
            obs.metrics.counter("serve.jobs", state="submitted").inc()
            if cached_payload is not None:
                now = time.time()
                record.state = "completed"
                record.cached = True
                record.payload = cached_payload
                record.started_unix = now
                record.finished_unix = now
                obs.metrics.counter("serve.jobs", state="completed").inc()
                obs.metrics.histogram("serve.job_seconds").observe(
                    record.elapsed_seconds
                )
            else:
                record.state = "queued"
                self._queue.append(job_id)
                obs.metrics.gauge("serve.queue_depth").set(len(self._queue))
        if not record.cached:
            self._wakeup.set()
        return record

    def job(self, job_id: int) -> Optional[JobRecord]:
        """The record for ``job_id``, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self, limit: int = 200) -> List[Dict]:
        """Most-recent-first job summaries for ``GET /jobs``."""
        with self._lock:
            records = sorted(self._jobs.values(),
                             key=lambda r: r.job_id, reverse=True)
            return [record.to_dict() for record in records[:limit]]

    def counts_by_state(self) -> Dict[str, int]:
        """``{state: count}`` over every record."""
        with self._lock:
            counts: Dict[str, int] = {}
            for record in self._jobs.values():
                counts[record.state] = counts.get(record.state, 0) + 1
            return counts

    def stats(self) -> Dict:
        """The ``GET /stats`` document."""
        with self._lock:
            queue_depth = len(self._queue)
        return {
            "uptime_seconds": (
                time.time() - self._started_at if self._started_at else 0.0
            ),
            "workers": self.workers,
            "worker_restarts": self._pool.restarts,
            "queue_depth": queue_depth,
            "queue_limit": self.queue_limit,
            "jobs": self.counts_by_state(),
            "store": str(self.store.root) if self.store is not None else None,
        }

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def _schedule_loop(self) -> None:
        """Dispatch queued jobs in id order; fold outcomes into records."""
        while not self._stop.is_set():
            self._dispatch_ready()
            for outcome in self._pool.poll(timeout=0.05):
                self._apply_outcome(outcome)
            if self._pool.busy_workers == 0:
                with self._lock:
                    idle = not self._queue
                if idle:
                    self._wakeup.wait(timeout=0.2)
                    self._wakeup.clear()

    def _dispatch_ready(self) -> None:
        """Move queued jobs into idle pool slots, oldest job first."""
        while self._pool.idle_workers > 0:
            with self._lock:
                if not self._queue:
                    return
                job_id = self._queue.pop(0)
                record = self._jobs[job_id]
                obs.metrics.gauge("serve.queue_depth").set(len(self._queue))
            try:
                worker = self._pool.submit(job_id, record.spec)
            except RuntimeError:
                # Raced another dispatcher for the last slot: requeue at
                # the front and retry on the next loop pass.
                with self._lock:
                    self._queue.insert(0, job_id)
                    obs.metrics.gauge("serve.queue_depth").set(
                        len(self._queue)
                    )
                return
            with self._lock:
                record.state = "running"
                record.worker = worker
                record.started_unix = time.time()
                obs.metrics.counter("serve.jobs", state="running").inc()

    def _apply_outcome(self, outcome) -> None:
        """Fold one pool outcome into its job record + metrics."""
        with self._lock:
            record = self._jobs.get(outcome.job_id)
            if record is None or record.done:
                return
            record.finished_unix = time.time()
            record.worker = outcome.worker
            if outcome.ok:
                record.state = "completed"
                record.payload = outcome.payload
            else:
                record.state = "failed"
                record.error = outcome.error
                record.message = outcome.message
                record.failure_kind = outcome.failure
            elapsed = record.elapsed_seconds
            state = record.state
        obs.metrics.counter("serve.jobs", state=state).inc()
        obs.metrics.histogram("serve.job_seconds").observe(elapsed)
