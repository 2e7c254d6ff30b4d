"""The spawn worker pool every service job runs on.

:class:`WorkerPool` is the service's real unlock: ``run_ordered``'s
thread fan-out is GIL-bound on pure-Python BDD and LP model building,
so the daemon fans jobs out to ``multiprocessing`` *spawn* workers
instead.  Each worker slot owns a dedicated task queue and result
queue (single-producer/single-consumer both ways, so a killed worker
can never corrupt a sibling's channel), executes jobs through
:func:`repro.serve.jobs.execute_job_stored` against its own handle on
the shared artifact store, and reports structured
:class:`JobOutcome` records -- the
:class:`~repro.parallel.TaskFailure` idiom, one process boundary out.

Supervision lives in :meth:`WorkerPool.poll`: it drains finished
results, detects worker hard-crashes (``process.is_alive()`` false
under a live job -> a ``crash`` outcome, never a dead daemon), kills
and respawns workers whose job exceeded its wall-clock budget
(``budget`` outcomes), and keeps the slot count constant.  A job over
budget is always stopped, never left running.

:func:`run_jobs` is the ordered batch helper mirroring
:func:`repro.parallel.run_ordered`: outcomes return in submission
order regardless of completion order.  :func:`shared_pool` hands out
one process-wide spawn pool per configuration so the fuzz oracle and
the bench layer amortize worker start-up across calls.
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.serve.jobs import JobSpec, execute_job_stored

#: Default worker count for pools and the daemon.
DEFAULT_WORKERS = 2

#: Grace period between ``terminate()`` and ``kill()`` on a budget kill.
_KILL_GRACE_SECONDS = 1.0

#: Supervisor sleep quantum while waiting for results.
_POLL_SLEEP = 0.01


@dataclass(frozen=True)
class JobOutcome:
    """Terminal report for one job, in :class:`~repro.parallel.TaskFailure`
    style: either a payload (``ok``) or a structured failure with the
    exception type, message, and failure kind (``error`` | ``crash`` |
    ``budget``)."""

    job_id: int
    ok: bool
    payload: Optional[Dict] = None
    error: Optional[str] = None
    message: Optional[str] = None
    failure: Optional[str] = None
    worker: Optional[int] = None


def _worker_main(slot: int, store_root: Optional[str],
                 task_queue, result_queue) -> None:
    """Spawn-worker loop: execute task-queue jobs until the sentinel.

    Runs in the child process.  Each worker opens its own
    :class:`~repro.store.ArtifactStore` on the shared root, so results
    are written content-addressed from wherever they were computed.
    A ``None`` task is the shutdown sentinel; a job that raises
    becomes a structured failure message; a job that hard-crashes the
    process produces nothing -- the parent's liveness check turns that
    silence into a ``crash`` outcome.
    """
    from repro.store import ArtifactStore

    store = ArtifactStore(store_root) if store_root else None
    while True:
        item = task_queue.get()
        if item is None:
            return
        job_id, spec_doc = item
        try:
            payload = execute_job_stored(JobSpec.from_dict(spec_doc), store)
            result_queue.put(
                {"job_id": job_id, "ok": True, "payload": payload}
            )
        except BaseException as exc:  # structured failure, never a dead worker
            result_queue.put({
                "job_id": job_id,
                "ok": False,
                "error": type(exc).__name__,
                "message": str(exc),
            })


class _Slot:
    """One worker seat: process handle, queues, and the job it holds."""

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.task_queue = None
        self.result_queue = None
        self.job_id: Optional[int] = None
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        """True while a job is assigned and unresolved."""
        return self.job_id is not None


class WorkerPool:
    """A fixed set of spawn workers with crash/budget supervision.

    ``submit`` assigns a job to the lowest-numbered idle slot (the
    deterministic placement rule); ``poll`` drains outcomes and
    performs supervision; ``shutdown`` drains the seats.  All public
    methods are thread-safe: the daemon calls ``submit`` from HTTP
    handler threads while its scheduler thread polls.
    """

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        store_root: Optional[str] = None,
        mp_context: str = "spawn",
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.store_root = store_root
        self._ctx = multiprocessing.get_context(mp_context)
        self._slots = [_Slot(index) for index in range(workers)]
        self._lock = threading.Lock()
        # Held by run_jobs for a whole batch (see there).
        self._batch_lock = threading.Lock()
        self._restarts = 0
        self._started = False

    def start(self) -> "WorkerPool":
        """Spawn every worker; returns ``self`` (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            for slot in self._slots:
                self._spawn(slot)
        return self

    def _spawn(self, slot: _Slot) -> None:
        """(Re)start the process behind ``slot`` with fresh queues."""
        slot.task_queue = self._ctx.SimpleQueue()
        slot.result_queue = self._ctx.SimpleQueue()
        slot.process = self._ctx.Process(
            target=_worker_main,
            args=(slot.index, self.store_root,
                  slot.task_queue, slot.result_queue),
            name=f"repro-serve-worker-{slot.index}",
            daemon=True,
        )
        slot.process.start()

    @property
    def restarts(self) -> int:
        """Workers respawned after a crash or budget kill."""
        with self._lock:
            return self._restarts

    @property
    def idle_workers(self) -> int:
        """Slots currently free to accept a job."""
        with self._lock:
            return sum(1 for slot in self._slots if not slot.busy)

    @property
    def busy_workers(self) -> int:
        """Slots currently executing a job."""
        return self.workers - self.idle_workers

    def submit(self, job_id: int, spec: JobSpec) -> int:
        """Dispatch ``spec`` to the lowest idle slot; returns its index.

        Raises ``RuntimeError`` when every worker is busy -- callers
        (the daemon scheduler, :func:`run_jobs`) hold their own queue
        and dispatch only into free capacity.
        """
        if not self._started:
            self.start()
        with self._lock:
            for slot in self._slots:
                if not slot.busy:
                    slot.job_id = job_id
                    budget = spec.budget_seconds
                    slot.deadline = (
                        time.monotonic() + budget if budget else None
                    )
                    slot.task_queue.put((job_id, spec.to_dict()))
                    return slot.index
        raise RuntimeError("no idle worker (pool is saturated)")

    def poll(self, timeout: float = 0.0) -> List[JobOutcome]:
        """Drain outcomes; supervise crashes and budgets.

        Returns immediately once at least one outcome is available (or
        after ``timeout`` seconds with none).  Budget enforcement and
        crash detection happen here, on the supervisor's clock: a
        worker past its job's deadline is terminated and respawned
        (``budget`` outcome); a dead worker under a live job is
        respawned too (``crash`` outcome).
        """
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            outcomes = self._sweep()
            if outcomes or time.monotonic() >= deadline:
                return outcomes
            time.sleep(_POLL_SLEEP)

    def _sweep(self) -> List[JobOutcome]:
        """One supervision pass over every slot (lock held per slot)."""
        outcomes: List[JobOutcome] = []
        with self._lock:
            for slot in self._slots:
                if not slot.busy:
                    continue
                # 1. Finished normally (result or structured error).
                if not slot.result_queue.empty():
                    doc = slot.result_queue.get()
                    outcomes.append(JobOutcome(
                        job_id=slot.job_id,
                        ok=bool(doc.get("ok")),
                        payload=doc.get("payload"),
                        error=doc.get("error"),
                        message=doc.get("message"),
                        failure=None if doc.get("ok") else "error",
                        worker=slot.index,
                    ))
                    slot.job_id = None
                    slot.deadline = None
                    continue
                # 2. Over budget: kill the worker, respawn the seat.
                if (slot.deadline is not None
                        and time.monotonic() > slot.deadline):
                    outcomes.append(JobOutcome(
                        job_id=slot.job_id,
                        ok=False,
                        error="JobBudgetExceeded",
                        message="job exceeded its wall-clock budget and "
                                "the worker was killed",
                        failure="budget",
                        worker=slot.index,
                    ))
                    self._kill_and_respawn(slot)
                    continue
                # 3. Hard crash: the process died under a live job.
                if not slot.process.is_alive():
                    exitcode = slot.process.exitcode
                    outcomes.append(JobOutcome(
                        job_id=slot.job_id,
                        ok=False,
                        error="WorkerCrashed",
                        message=(
                            f"worker {slot.index} died with exit code "
                            f"{exitcode} while running the job"
                        ),
                        failure="crash",
                        worker=slot.index,
                    ))
                    self._kill_and_respawn(slot)
        return outcomes

    def _kill_and_respawn(self, slot: _Slot) -> None:
        """Terminate ``slot``'s process (if alive) and reseat it."""
        process = slot.process
        if process.is_alive():
            process.terminate()
            process.join(_KILL_GRACE_SECONDS)
            if process.is_alive():
                process.kill()
                process.join(_KILL_GRACE_SECONDS)
        slot.job_id = None
        slot.deadline = None
        self._restarts += 1
        obs.metrics.counter("serve.worker_restarts").inc()
        self._spawn(slot)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Send every worker the sentinel and join; kill stragglers."""
        with self._lock:
            if not self._started:
                return
            self._started = False
            for slot in self._slots:
                if slot.process is None:
                    continue
                if slot.process.is_alive():
                    slot.task_queue.put(None)
            for slot in self._slots:
                if slot.process is None:
                    continue
                slot.process.join(timeout)
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join(_KILL_GRACE_SECONDS)
                slot.process = None
                slot.job_id = None


def run_jobs(
    specs: Sequence[JobSpec],
    workers: int = DEFAULT_WORKERS,
    store_root: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
) -> List[JobOutcome]:
    """Execute ``specs`` through a pool; outcomes in submission order.

    The ordering contract mirrors :func:`repro.parallel.run_ordered`:
    result ``i`` is the outcome of spec ``i`` however completion
    interleaved.  Passing ``pool`` reuses an already-started pool
    (e.g. :func:`shared_pool`) and leaves it running; otherwise a
    fresh pool is created and shut down.  Batches on one pool take
    turns: :meth:`WorkerPool.poll` hands an outcome to whichever caller
    polls, and every batch numbers its jobs from 0, so two interleaved
    batches would take each other's outcomes.
    """
    own_pool = pool is None
    target = pool if pool is not None else WorkerPool(
        workers=workers, store_root=store_root
    )
    target.start()
    try:
        with target._batch_lock:
            by_id: Dict[int, JobOutcome] = {}
            next_index = 0
            while len(by_id) < len(specs):
                while (next_index < len(specs)
                       and target.idle_workers > 0):
                    target.submit(next_index, specs[next_index])
                    next_index += 1
                for outcome in target.poll(timeout=0.1):
                    by_id[outcome.job_id] = outcome
            return [by_id[index] for index in range(len(specs))]
    finally:
        if own_pool:
            target.shutdown()


_SHARED: Dict[Tuple[int, Optional[str]], WorkerPool] = {}
_SHARED_LOCK = threading.Lock()


def _shutdown_shared() -> None:
    """``atexit`` hook: drain every shared pool."""
    with _SHARED_LOCK:
        pools = list(_SHARED.values())
        _SHARED.clear()
    for pool in pools:
        pool.shutdown()


def shared_pool(workers: int = DEFAULT_WORKERS,
                store_root: Optional[str] = None) -> WorkerPool:
    """A process-wide started :class:`WorkerPool` per configuration.

    Spawn start-up costs a full interpreter boot and package import
    per worker; the fuzz oracle and the bench layer run many small
    batches, so they share one pool instead of paying that per call.
    The pool is shut down at interpreter exit.
    """
    key = (workers, store_root)
    with _SHARED_LOCK:
        pool = _SHARED.get(key)
        if pool is None:
            if not _SHARED:
                atexit.register(_shutdown_shared)
            pool = WorkerPool(workers=workers, store_root=store_root).start()
            _SHARED[key] = pool
        return pool
