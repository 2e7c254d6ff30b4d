"""``repro.shard`` -- sharded data-plane verification.

The scale-out tier of the verification stack: cut the network into
device shards (:mod:`repro.shard.partition`), verify each shard with a
**shard-local** BDD engine -- in this process or fanned out over spawn
workers (:mod:`repro.shard.artifacts`, :mod:`repro.shard.verifier`) --
and stitch per-shard canonical interval sets back into whole-network
answers provably byte-identical to the unsharded
:class:`~repro.ap.verifier.APVerifier`
(:mod:`repro.shard.intervals`, :mod:`repro.shard.stitch`).
:mod:`repro.shard.streaming` adds the incremental form: APKeep-style
deltas from a rule-change feed, re-verified per affected shard only
with bounded per-update latency.

Quick start::

    from repro.netmodel.datasets import build_verification_dataset
    from repro.shard import ShardVerifier, whole_reference_document

    dataset = build_verification_dataset("Internet2")
    sharded = ShardVerifier(dataset, shards=4)
    assert sharded.comparison_document() == whole_reference_document(dataset)
"""

from repro.shard import intervals
from repro.shard.artifacts import (
    SCHEMA,
    build_shard_artifact,
    build_shard_artifact_from_doc,
    check_artifact,
)
from repro.shard.codec import (
    dataset_fingerprint,
    dataset_from_doc,
    dataset_to_doc,
    shard_dataset,
)
from repro.shard.partition import (
    STRATEGIES,
    NetworkPartitioner,
    ShardPlan,
)
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
from repro.shard.streaming import StreamingVerifier
from repro.shard.verifier import (
    ShardVerifier,
    artifact_store_key,
    documents_equal,
    whole_reference_document,
)

__all__ = [
    "SCHEMA",
    "STRATEGIES",
    "NetworkPartitioner",
    "ShardPlan",
    "ShardVerifier",
    "StreamingVerifier",
    "allocated_intervals",
    "artifact_store_key",
    "build_adjacency",
    "build_shard_artifact",
    "build_shard_artifact_from_doc",
    "check_artifact",
    "dataset_fingerprint",
    "dataset_from_doc",
    "dataset_to_doc",
    "documents_equal",
    "intervals",
    "merge_artifacts",
    "result_document",
    "shard_dataset",
    "stitched_blackholes",
    "stitched_reachability",
    "whole_blackhole_intervals",
    "whole_reachability_intervals",
    "whole_reference_document",
]
