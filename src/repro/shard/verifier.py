"""Sharded data-plane verification: partitioned AP across processes.

:class:`ShardVerifier` is the tier that makes atomic-predicates
verification scale out: it cuts the dataset with
:class:`~repro.shard.partition.NetworkPartitioner`, builds one artifact
per shard -- each in its **own** BDD engine, optionally in its own
spawn worker process -- and answers whole-network queries by stitching
the artifacts' canonical interval sets
(:mod:`repro.shard.stitch`).  Answers are byte-identical to the
unsharded :class:`~repro.ap.verifier.APVerifier`'s (the differential
fuzz oracle ``dataplane.sharded-vs-whole`` holds this continuously);
forwarding-loop detection is the one query that stays whole-network
(see :mod:`repro.shard.stitch`).

Where missing artifacts are built follows from the arguments:

* by default, one after another in this process (``mode`` reports
  ``"serial"``) -- the deterministic baseline tests and fuzz oracles
  use;
* with ``workers=N`` or ``pool=...``, fanned out to spawn workers
  (``mode`` reports ``"process"``), each shard's BDD node table in its
  own process.  Pass ``pool=shared_pool(...)`` to amortize worker
  boot; this is where sharded beats whole on multi-core.

Artifacts persist under the ``shard/1/artifact/<fingerprint>`` store
key family, fingerprinted by (dataset content, shard count, strategy,
shard index, BDD profile) -- so a warm store turns a re-verification
into pure stitching, across processes and across runs.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.netmodel.datasets import VerificationDataset
from repro.serve.jobs import JobSpec
from repro.serve.pool import DEFAULT_WORKERS, WorkerPool, run_jobs
from repro.shard import intervals
from repro.shard.artifacts import (
    SCHEMA,
    build_shard_artifact,
    check_artifact,
)
from repro.shard.codec import dataset_fingerprint, dataset_to_doc, shard_dataset
from repro.shard.partition import NetworkPartitioner, ShardPlan
from repro.shard.stitch import (
    allocated_intervals,
    build_adjacency,
    merge_artifacts,
    result_document,
    stitched_blackholes,
    stitched_reachability,
    whole_blackhole_intervals,
    whole_reachability_intervals,
)
from repro.store import ArtifactStore, fingerprint


def artifact_store_key(
    dataset_fp: str, num_shards: int, strategy: str, index: int, profile: str
) -> str:
    """``shard/1/artifact/<fp>`` for one shard of one partitioning."""
    return (
        f"shard/{SCHEMA.rsplit('/', 1)[1]}/artifact/"
        f"{fingerprint(dataset_fp, num_shards, strategy, index, profile)}"
    )


class ShardVerifier:
    """Whole-network verification from per-shard artifacts.

    Construction partitions, then loads every shard artifact from the
    store (warm path: no BDD work at all) or builds the misses --
    serially in this process, or on spawn workers when ``workers`` or
    ``pool`` is given (``mode`` records which); queries are pure
    interval stitching in the parent process.  ``store_hits`` counts
    shards served warm -- the cross-process reuse the store tier exists
    for.
    """

    def __init__(
        self,
        dataset: VerificationDataset,
        shards: int = 2,
        strategy: str = "bfs",
        profile: str = "jdd",
        store: Optional[ArtifactStore] = None,
        workers: Optional[int] = None,
        pool: Optional[WorkerPool] = None,
    ):
        self.dataset = dataset
        self.profile = profile
        #: ``"process"`` when builds go to spawn workers, else ``"serial"``.
        self.mode = (
            "process" if workers is not None or pool is not None else "serial"
        )
        self.store = store
        self.plan: ShardPlan = NetworkPartitioner(
            shards, strategy
        ).partition(dataset)
        self.dataset_fingerprint = dataset_fingerprint(dataset)
        self.store_hits = 0
        with obs.span(
            "shard.build_all",
            dataset=dataset.name,
            shards=self.plan.num_shards,
            mode=self.mode,
        ) as sp:
            self.artifacts: List[Dict] = self._load_or_build(workers, pool)
            sp.set(store_hits=self.store_hits)
        self.build_seconds = sp.duration
        self.ports, self.acl = merge_artifacts(self.artifacts)
        self.adjacency = build_adjacency(self.plan.links)
        self.allocated = allocated_intervals(dataset)
        obs.metrics.counter("shard.verifiers", mode=self.mode).inc()

    # ------------------------------------------------------------------
    # Artifact acquisition
    # ------------------------------------------------------------------
    def artifact_key(self, index: int) -> str:
        """Store key of shard ``index`` under this partitioning."""
        return artifact_store_key(
            self.dataset_fingerprint,
            self.plan.num_shards,
            self.plan.strategy,
            index,
            self.profile,
        )

    def _load_or_build(self, workers: Optional[int], pool) -> List[Dict]:
        artifacts: List[Optional[Dict]] = [None] * self.plan.num_shards
        missing: List[int] = []
        for index, members in enumerate(self.plan.members):
            doc = (
                self.store.get(self.artifact_key(index))
                if self.store is not None
                else None
            )
            if doc is not None:
                check_artifact(doc, list(members))
                artifacts[index] = doc
                self.store_hits += 1
                obs.metrics.counter("shard.artifact.hits").inc()
            else:
                missing.append(index)
                obs.metrics.counter("shard.artifact.misses").inc()
        if missing:
            self._build_missing(artifacts, missing, workers, pool)
            if self.store is not None:
                for index in missing:
                    self.store.put(self.artifact_key(index), artifacts[index])
        return list(artifacts)

    def _build_missing(
        self,
        artifacts: List[Optional[Dict]],
        missing: List[int],
        workers: Optional[int],
        pool,
    ) -> None:
        """Build the artifacts ``missing`` names, honouring ``mode``."""
        if self.mode == "serial":
            for index in missing:
                artifacts[index] = build_shard_artifact(
                    self.dataset,
                    list(self.plan.members[index]),
                    index,
                    profile=self.profile,
                )
            return
        # Each worker gets only its shard's sub-dataset: the artifact is
        # a pure function of the member FIBs/ACLs, so shipping the rest
        # of the network would just multiply serialization and
        # reconstruction cost by the shard count.
        specs = [
            JobSpec(
                kind="shard-build",
                params={
                    "dataset_doc": dataset_to_doc(shard_dataset(
                        self.dataset,
                        self.plan.members[index],
                        name=f"{self.dataset.name}/shard{index}",
                    )),
                    "members": list(self.plan.members[index]),
                    "index": index,
                    "profile": self.profile,
                },
            )
            for index in missing
        ]
        outcomes = run_jobs(
            specs,
            workers=workers or min(len(missing), DEFAULT_WORKERS),
            pool=pool,
        )
        for index, outcome in zip(missing, outcomes):
            if outcome is None or not outcome.ok:
                detail = outcome.message if outcome else "no outcome"
                raise RuntimeError(
                    f"shard {index} build failed "
                    f"({outcome.error if outcome else 'lost'}): {detail}"
                )
            artifacts[index] = outcome.payload

    # ------------------------------------------------------------------
    # Queries (pure interval stitching; no BDD engine in this process)
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    def reachability(self, src: str) -> Dict[str, intervals.IntervalSet]:
        """Headers from ``src`` arriving at every device (stitched)."""
        start = time.perf_counter()
        found = stitched_reachability(self.ports, self.acl, self.adjacency, src)
        obs.metrics.histogram("shard.stitch.seconds").observe(
            time.perf_counter() - start
        )
        return found

    def blackholes(self) -> Dict[str, intervals.IntervalSet]:
        """Allocated headers dropped per device (stitched)."""
        return stitched_blackholes(self.ports, self.acl, self.allocated)

    def reachability_document(self, src: str) -> Dict:
        """Canonical plain-JSON reachability answer for ``src``."""
        return result_document(self.reachability(src))

    def blackholes_document(self) -> Dict:
        """Canonical plain-JSON blackhole answer."""
        return result_document(self.blackholes())

    def comparison_document(
        self, sources: Optional[Sequence[str]] = None
    ) -> Dict:
        """The equality surface: reachability per source + blackholes.

        Byte-compare this (e.g. ``json.dumps(..., sort_keys=True)``)
        against :func:`whole_reference_document` of the same dataset --
        the sharded-vs-whole acceptance check.
        """
        if sources is None:
            sources = sorted(self.dataset.devices)
        return {
            "reachability": {
                src: self.reachability_document(src) for src in sources
            },
            "blackholes": self.blackholes_document(),
        }

    def result_document(
        self, sources: Optional[Sequence[str]] = None
    ) -> Dict:
        """Full verification result: plan, per-shard stats, answers."""
        return {
            "ok": True,
            "schema": SCHEMA,
            "dataset": self.dataset.name,
            "fingerprint": self.dataset_fingerprint,
            "mode": self.mode,
            "plan": self.plan.describe(),
            "store_hits": self.store_hits,
            "atoms_per_shard": [a["atoms"] for a in self.artifacts],
            "engine_stats": self.engine_stats(),
            **self.comparison_document(sources),
        }

    def engine_stats(self) -> List[Dict]:
        """Per-shard BDD engine telemetry (one isolated engine each).

        The shard-locality proof surface: shard ``i``'s ``num_nodes`` is
        a pure function of shard ``i``'s inputs, so building it alone or
        alongside every other shard reports identical numbers.
        """
        return [artifact["engine"] for artifact in self.artifacts]


def whole_reference_document(
    dataset: VerificationDataset,
    sources: Optional[Sequence[str]] = None,
    profile: str = "jdd",
) -> Dict:
    """The unsharded verifier's answers, shaped like
    :meth:`ShardVerifier.comparison_document`.

    Runs a plain :class:`~repro.ap.verifier.APVerifier` on the whole
    dataset and exports through the same canonical-interval conversion,
    so equality with the sharded side is byte equality.
    """
    from repro.ap import APVerifier

    verifier = APVerifier(dataset, profile=profile)
    if sources is None:
        sources = sorted(dataset.devices)
    return {
        "reachability": {
            src: result_document(whole_reachability_intervals(verifier, src))
            for src in sources
        },
        "blackholes": result_document(whole_blackhole_intervals(verifier)),
    }


def documents_equal(a: Dict, b: Dict) -> bool:
    """Byte equality of two canonical result documents."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
