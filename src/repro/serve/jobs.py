"""The service's job model: specs, records, and the execution dispatch.

A *job* is one unit of reproduction work submitted to the daemon: a
campaign, a TE solve, a data-plane verification, or a ``probe`` (the
test/CI workload that can sleep, spin CPU, raise, or hard-crash on
demand).  The
two halves of the model mirror :mod:`repro.parallel`:

* :class:`JobSpec` is the immutable request -- kind, canonicalised
  parameters, a per-job seed, and an optional wall-clock budget.  Specs
  are plain-JSON both ways (:meth:`JobSpec.to_dict` /
  :meth:`JobSpec.from_dict`) so they cross the process boundary to
  spawn workers and land in HTTP bodies unchanged.
* :class:`JobRecord` is the daemon-side lifecycle: ``queued ->
  running -> completed | failed``, with structured failure fields
  (error type, message, failure kind) in the style of
  :class:`repro.parallel.TaskFailure` -- a crashed worker becomes a
  record, never a dead daemon.

The artifact store is the result tier: :func:`job_key` derives a
content-addressed ``serve/1/<kind>/<fingerprint>`` key from the
canonical spec, and :func:`execute_job_stored` memoizes through it so a
repeat submission is a store hit instead of a recompute.  ``probe``
jobs are deliberately unkeyed -- their side effects (sleeping,
crashing) *are* the workload, so caching them would defeat the tests
and load generators that rely on them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.store import ArtifactStore, fingerprint, memoized

#: Store-key schema version for serve results; bump to retire entries.
SCHEMA_VERSION = 1

#: Job kinds the service executes, in catalogue order.
JOB_KINDS = ("campaign", "solve", "verify", "shard-build", "probe")

#: Job lifecycle states (``rejected`` appears only in metrics: a
#: rejected submission never becomes a record).
JOB_STATES = ("queued", "running", "completed", "failed")

#: Paper keys a campaign job may reference (the campaign CLI's set).
CAMPAIGN_PAPERS = ("ncflow", "arrow", "apkeep", "ap", "rps")

#: Prompting styles a campaign job may reference.
CAMPAIGN_STYLES = ("monolithic", "modular-text", "modular-pseudocode")

#: Probe actions: benign, slow, CPU-bound, raising, and hard-crashing.
PROBE_ACTIONS = ("ok", "sleep", "spin", "error", "crash")


@dataclass(frozen=True)
class JobSpec:
    """One submitted unit of work: kind, parameters, seed, budget.

    ``params`` is kind-specific plain JSON (validated by
    :meth:`validate`); ``seed`` is part of the job's identity so two
    submissions differing only in seed are distinct store entries;
    ``budget_seconds`` bounds wall-clock execution (enforced by the
    worker pool, not by the executing code itself).
    """

    kind: str
    params: Dict = field(default_factory=dict)
    seed: int = 0
    budget_seconds: Optional[float] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on an unknown kind or malformed params."""
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be a dict, got {type(self.params).__name__}")
        if self.budget_seconds is not None and self.budget_seconds <= 0:
            raise ValueError(f"budget_seconds must be > 0, got {self.budget_seconds}")
        canonical = self.canonical_params()
        if self.kind == "campaign":
            papers = canonical["papers"]
            if not papers:
                raise ValueError("campaign job needs at least one paper")
            unknown = [p for p in papers if p not in CAMPAIGN_PAPERS]
            if unknown:
                raise ValueError(
                    f"unknown campaign papers {unknown}; "
                    f"expected a subset of {CAMPAIGN_PAPERS}"
                )
            bad_styles = [
                s for s in canonical["styles"] if s not in CAMPAIGN_STYLES
            ]
            if bad_styles:
                raise ValueError(
                    f"unknown campaign styles {bad_styles}; "
                    f"expected a subset of {CAMPAIGN_STYLES}"
                )
        elif self.kind == "verify":
            if canonical["shards"] < 1:
                raise ValueError(
                    f"shards must be >= 1, got {canonical['shards']}"
                )
        elif self.kind == "shard-build":
            if not isinstance(canonical["dataset_doc"], dict):
                raise ValueError("shard-build needs a dataset_doc dict")
            if not canonical["members"]:
                raise ValueError("shard-build needs a non-empty members list")
        elif self.kind == "probe":
            if canonical["action"] not in PROBE_ACTIONS:
                raise ValueError(
                    f"unknown probe action {canonical['action']!r}; "
                    f"expected one of {PROBE_ACTIONS}"
                )

    def canonical_params(self) -> Dict:
        """The params dict with defaults filled, in a stable shape.

        Two submissions that mean the same work produce byte-identical
        canonical params, which is what :func:`job_key` fingerprints --
        so ``{"papers": ["rps"]}`` and ``{"papers": ["rps"], "styles":
        ["modular-pseudocode"]}`` share one store entry.
        """
        params = self.params
        if self.kind == "campaign":
            # A bare string means a one-element list, so the CLI's
            # ``--param papers=rps`` works without JSON quoting.
            papers = params.get("papers", [])
            styles = params.get("styles", ["modular-pseudocode"])
            if isinstance(papers, str):
                papers = [papers]
            if isinstance(styles, str):
                styles = [styles]
            return {
                "papers": [str(p) for p in papers],
                "styles": [str(s) for s in styles],
                "max_debug_rounds": int(params.get("max_debug_rounds", 6)),
            }
        if self.kind == "solve":
            return {
                "instance": str(params.get("instance", "B4")),
                "solver": str(params.get("solver", "pf4")),
                "commodities": int(params.get("commodities", 30)),
                "load": float(params.get("load", 0.1)),
            }
        if self.kind == "verify":
            return {
                "dataset": str(params.get("dataset", "Internet2")),
                "shards": int(params.get("shards", 1)),
            }
        if self.kind == "shard-build":
            return {
                "dataset_doc": params.get("dataset_doc", {}),
                "members": [str(m) for m in params.get("members", [])],
                "index": int(params.get("index", 0)),
                "profile": str(params.get("profile", "jdd")),
            }
        # probe
        return {
            "action": str(params.get("action", "ok")),
            "seconds": float(params.get("seconds", 0.0)),
            "iterations": int(params.get("iterations", 50_000)),
        }

    def key(self) -> Optional[str]:
        """Content-addressed store key, or ``None`` for unkeyed kinds."""
        return job_key(self)

    def to_dict(self) -> Dict:
        """Plain-JSON form (HTTP bodies, worker task queues)."""
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "seed": self.seed,
            "budget_seconds": self.budget_seconds,
        }

    @staticmethod
    def from_dict(payload: Dict) -> "JobSpec":
        """Rebuild a spec serialized by :meth:`to_dict`."""
        budget = payload.get("budget_seconds")
        return JobSpec(
            kind=str(payload.get("kind", "")),
            params=dict(payload.get("params") or {}),
            seed=int(payload.get("seed", 0)),
            budget_seconds=float(budget) if budget is not None else None,
        )


def job_key(spec: JobSpec) -> Optional[str]:
    """``serve/1/<kind>/<fingerprint>`` for memoizable kinds.

    ``probe`` jobs return ``None``: their effects are the point, so
    they are executed every time and never stored.  ``shard-build``
    jobs are unkeyed too -- their results live under the
    ``shard/1/artifact/...`` key family, persisted by the parent
    :class:`~repro.shard.verifier.ShardVerifier`, so keying them here
    would double-store every artifact.
    """
    if spec.kind in ("probe", "shard-build"):
        return None
    return (
        f"serve/{SCHEMA_VERSION}/{spec.kind}/"
        f"{fingerprint(spec.kind, sorted(spec.canonical_params().items()), spec.seed)}"
    )


@dataclass
class JobRecord:
    """Daemon-side lifecycle of one submitted job.

    ``failure_kind`` distinguishes how a failed job failed: ``error``
    (the job raised), ``crash`` (the worker process died under it), or
    ``budget`` (it exceeded its wall-clock budget and was killed) --
    the same classification split the fuzz runner uses.  ``cached``
    marks completions served straight from the artifact store at
    admission time, without ever reaching a worker.
    """

    job_id: int
    spec: JobSpec
    state: str = "queued"
    created_unix: float = field(default_factory=time.time)
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    worker: Optional[int] = None
    cached: bool = False
    payload: Optional[Dict] = None
    error: Optional[str] = None
    message: Optional[str] = None
    failure_kind: Optional[str] = None

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in ("completed", "failed")

    @property
    def elapsed_seconds(self) -> float:
        """Queue-to-terminal wall time (0 while not yet finished)."""
        if self.finished_unix is None:
            return 0.0
        return max(0.0, self.finished_unix - self.created_unix)

    def to_dict(self, include_payload: bool = False) -> Dict:
        """Plain-JSON form for the HTTP API (payload opt-in: job
        listings stay small, ``/jobs/<id>/result`` ships the data)."""
        doc = {
            "id": self.job_id,
            "kind": self.spec.kind,
            "state": self.state,
            "seed": self.spec.seed,
            "cached": self.cached,
            "worker": self.worker,
            "created_unix": self.created_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "elapsed_seconds": self.elapsed_seconds,
            "store_key": self.spec.key(),
            "error": self.error,
            "message": self.message,
            "failure_kind": self.failure_kind,
            "spec": self.spec.to_dict(),
        }
        if include_payload:
            doc["payload"] = self.payload
        return doc


# ----------------------------------------------------------------------
# Execution: one function per kind, dispatched by execute_job.
# ----------------------------------------------------------------------
def _execute_campaign(params: Dict) -> Dict:
    from repro.core.prompts import PromptStyle
    from repro.experiments import run_campaign

    result = run_campaign(
        params["papers"],
        styles=[PromptStyle(style) for style in params["styles"]],
        max_debug_rounds=params["max_debug_rounds"],
        workers=1,
        on_error="collect",
    )
    return {
        "ok": result.num_succeeded == result.num_runs,
        "summary": result.summary(),
        "num_runs": result.num_runs,
        "num_succeeded": result.num_succeeded,
        "num_failed": result.num_failed_runs,
    }


def _execute_solve(params: Dict) -> Dict:
    from repro.netmodel.instances import make_te_instance
    from repro.te import registry

    instance = make_te_instance(
        params["instance"],
        max_commodities=params["commodities"],
        total_demand_fraction=params["load"],
    )
    solution = registry.solve(
        params["solver"], instance.topology, instance.traffic
    )
    return {
        "ok": solution.ok,
        "solver": params["solver"],
        "instance": params["instance"],
        "objective": round(float(solution.objective), 9),
        "status": solution.status,
        "lp_count": solution.lp_count,
        "commodities": instance.num_commodities,
    }


def _execute_verify(params: Dict) -> Dict:
    from repro.ap import APVerifier
    from repro.netmodel.datasets import build_verification_dataset

    dataset = build_verification_dataset(params["dataset"])
    if params["shards"] > 1:
        # Sharded path: serial artifact builds inside this worker (a
        # serve worker is already one of N processes; nesting another
        # spawn fan-out under it would oversubscribe the host).
        from repro.shard import ShardVerifier

        sharded = ShardVerifier(dataset, shards=params["shards"])
        return {
            "ok": True,
            "dataset": params["dataset"],
            "devices": dataset.topology.num_nodes,
            "rules": dataset.total_rules,
            "shards": sharded.num_shards,
            "plan": sharded.plan.describe(),
            "atoms_per_shard": [a["atoms"] for a in sharded.artifacts],
            "blackholes": len(sharded.blackholes()),
        }
    verifier = APVerifier(dataset)
    loops = verifier.find_loops()
    blackholes = verifier.find_blackholes(scope=verifier.allocated_atoms())
    return {
        "ok": True,
        "dataset": params["dataset"],
        "devices": dataset.topology.num_nodes,
        "rules": dataset.total_rules,
        "atoms": verifier.num_atoms,
        "loops": len(loops),
        "blackholes": len(blackholes),
    }


def _execute_shard_build(params: Dict) -> Dict:
    from repro.shard.artifacts import build_shard_artifact_from_doc

    return build_shard_artifact_from_doc(
        params["dataset_doc"],
        params["members"],
        params["index"],
        profile=params["profile"],
    )


def _execute_probe(params: Dict, seed: int) -> Dict:
    action = params["action"]
    if action == "sleep":
        time.sleep(params["seconds"])
        return {"ok": True, "action": action, "slept": params["seconds"],
                "seed": seed}
    if action == "spin":
        # GIL-holding CPU work: a blake2b hash chain seeded by the job
        # seed.  The digest makes the result deterministic and the loop
        # impossible to elide, so the serve bench pair measures real
        # parallelism (threads serialize here, spawn workers do not).
        import hashlib

        digest = str(seed).encode()
        for _ in range(params["iterations"]):
            digest = hashlib.blake2b(digest, digest_size=16).digest()
        return {"ok": True, "action": action,
                "iterations": params["iterations"],
                "digest": digest.hex(), "seed": seed}
    if action == "error":
        raise RuntimeError(f"probe error (seed {seed})")
    if action == "crash":
        import os

        os._exit(13)
    return {"ok": True, "action": action, "seed": seed}


def execute_job(spec: JobSpec) -> Dict:
    """Validate and run ``spec``; returns the plain-JSON result payload.

    Every payload carries an ``"ok"`` bool -- the store layer persists
    only ``ok`` payloads (the repo-wide no-cached-failures rule), and
    clients use it without inspecting kind-specific fields.
    """
    spec.validate()
    params = spec.canonical_params()
    if spec.kind == "campaign":
        return _execute_campaign(params)
    if spec.kind == "solve":
        return _execute_solve(params)
    if spec.kind == "verify":
        return _execute_verify(params)
    if spec.kind == "shard-build":
        return _execute_shard_build(params)
    return _execute_probe(params, spec.seed)


def execute_job_stored(
    spec: JobSpec, store: Optional[ArtifactStore] = None
) -> Dict:
    """:func:`execute_job` memoized through the artifact store.

    With no store (or an unkeyed kind) this is a transparent call.
    Only ``ok`` payloads persist, so a failed campaign or an
    infeasible solve is recomputed on resubmission rather than
    replayed from disk.
    """
    key = spec.key()
    if key is None:
        return execute_job(spec)
    return memoized(
        key,
        lambda: execute_job(spec),
        store=store,
        should_store=lambda payload: bool(payload.get("ok")),
    )
