"""The service tier: a long-lived reproduction daemon (``repro serve``).

The package turns the one-shot CLI flows into a persistent service --
the ROADMAP's "millions of users" direction.  Five modules, one per
concern:

* :mod:`repro.serve.jobs`    -- job specs/records and the per-kind
  execution dispatch (campaign, solve, verify, probe), memoized
  through the artifact store;
* :mod:`repro.serve.pool`    -- the multi-process spawn worker pool
  with crash/budget supervision, the ordered :func:`run_jobs` batch
  helper, and the process-wide :func:`shared_pool`;
* :mod:`repro.serve.daemon`  -- the HTTP daemon: admission-controlled
  queue, scheduler, live ``serve.*`` metrics;
* :mod:`repro.serve.client`  -- the stdlib HTTP client;
* :mod:`repro.serve.loadgen` -- the ``repro loadgen`` workload.

Quick use::

    from repro.serve import ReproDaemon, ServeClient

    with ReproDaemon(workers=2) as daemon:
        client = ServeClient(daemon.url)
        job = client.submit("solve", {"instance": "B4", "solver": "pf4"})
        print(client.wait(job["id"])["state"])

See ``docs/SERVICE.md`` for the full tier documentation.
"""

from repro.serve.client import (
    DEFAULT_HTTP_TIMEOUT,
    JobTimeoutError,
    ServeAPIError,
    ServeClient,
)
from repro.serve.daemon import (
    DEFAULT_PORT,
    DEFAULT_QUEUE_LIMIT,
    QueueFullError,
    ReproDaemon,
)
from repro.serve.jobs import (
    CAMPAIGN_PAPERS,
    CAMPAIGN_STYLES,
    JOB_KINDS,
    JOB_STATES,
    JobRecord,
    JobSpec,
    PROBE_ACTIONS,
    execute_job,
    execute_job_stored,
    job_key,
)
from repro.serve.loadgen import (
    DEFAULT_CONCURRENCY,
    DEFAULT_JOBS,
    LoadgenReport,
    loadgen_spec,
    run_loadgen,
)
from repro.serve.pool import (
    DEFAULT_WORKERS,
    JobOutcome,
    WorkerPool,
    run_jobs,
    shared_pool,
)

__all__ = [
    "CAMPAIGN_PAPERS",
    "CAMPAIGN_STYLES",
    "DEFAULT_CONCURRENCY",
    "DEFAULT_HTTP_TIMEOUT",
    "DEFAULT_JOBS",
    "DEFAULT_PORT",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_WORKERS",
    "JOB_KINDS",
    "JOB_STATES",
    "JobOutcome",
    "JobRecord",
    "JobSpec",
    "JobTimeoutError",
    "LoadgenReport",
    "PROBE_ACTIONS",
    "QueueFullError",
    "ReproDaemon",
    "ServeAPIError",
    "ServeClient",
    "WorkerPool",
    "execute_job",
    "execute_job_stored",
    "job_key",
    "loadgen_spec",
    "run_jobs",
    "run_loadgen",
    "shared_pool",
]
