"""Tests for the sharded data-plane verification subsystem.

Covers the canonical interval algebra (against brute-force bit sets and
BDD satcounts), the deterministic partitioner, the byte-identity of
sharded and streamed answers with the unsharded
:class:`~repro.ap.verifier.APVerifier` (named datasets, a hypothesis
property over random data planes, and post-update-burst state), BDD
node-table shard locality, store-backed warm reuse across verifier
instances, the serve ``verify``/``shard-build`` job kinds, and the
codec round trip that carries datasets to spawn workers.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.netmodel.datasets import (
    build_large_dataset,
    build_verification_dataset,
    random_dataset,
)
from repro.netmodel.headerspace import HEADER_BITS, Prefix
from repro.netmodel.rules import ForwardingRule
from repro.shard import (
    NetworkPartitioner,
    ShardVerifier,
    StreamingVerifier,
    build_shard_artifact,
    check_artifact,
    dataset_fingerprint,
    dataset_from_doc,
    dataset_to_doc,
    documents_equal,
    intervals,
    whole_reference_document,
)
from repro.store import ArtifactStore

FUZZ_SETTINGS = dict(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

FULL_SPACE = 1 << HEADER_BITS


def interval_members(iset):
    """Expand an interval set to its member-address set (tests only)."""
    out = set()
    for start, end in iset:
        out.update(range(start, end))
    return out


class TestIntervalAlgebra:
    @given(st.lists(
        st.tuples(st.integers(0, FULL_SPACE - 1), st.integers(1, 300)),
        max_size=6,
    ), st.lists(
        st.tuples(st.integers(0, FULL_SPACE - 1), st.integers(1, 300)),
        max_size=6,
    ))
    @settings(max_examples=60, deadline=None)
    def test_set_operations_match_brute_force(self, raw_a, raw_b):
        a = intervals.normalize(
            (s, min(s + n, FULL_SPACE)) for s, n in raw_a
        )
        b = intervals.normalize(
            (s, min(s + n, FULL_SPACE)) for s, n in raw_b
        )
        set_a, set_b = interval_members(a), interval_members(b)
        assert interval_members(intervals.union(a, b)) == set_a | set_b
        assert interval_members(intervals.intersect(a, b)) == set_a & set_b
        assert interval_members(intervals.difference(a, b)) == set_a - set_b
        assert intervals.total(a) == len(set_a)

    def test_normalize_merges_adjacent_and_overlapping(self):
        got = intervals.normalize([(10, 20), (20, 30), (5, 12), (40, 41)])
        assert got == ((5, 30), (40, 41))

    def test_json_round_trip(self):
        iset = ((0, 7), (9, 200))
        assert intervals.from_json(intervals.to_json(iset)) == iset

    def test_prefix_to_intervals(self):
        prefix = Prefix(0x8000, 1)
        assert intervals.prefix_to_intervals(prefix) == (
            (0x8000, FULL_SPACE),
        )
        assert intervals.prefix_to_intervals(Prefix(0, 0)) == intervals.FULL

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bdd_to_intervals_matches_satcount(self, seed):
        import numpy as np

        from repro.bdd.builder import new_engine, prefix_to_bdd

        rng = np.random.RandomState(seed)
        engine = new_engine("jdd")
        acc = prefix_to_bdd(engine, _random_prefix(rng))
        for _ in range(3):
            node = prefix_to_bdd(engine, _random_prefix(rng))
            acc = [engine.or_, engine.and_, engine.diff][
                int(rng.randint(3))
            ](acc, node)
        found = intervals.bdd_to_intervals(engine, acc)
        assert intervals.total(found) == engine.satcount(acc)


def _random_prefix(rng):
    length = int(rng.randint(0, HEADER_BITS + 1))
    bits = int(rng.randint(0, 1 << length)) if length else 0
    return Prefix(bits << (HEADER_BITS - length), length)


class TestPartitioner:
    def test_deterministic_and_total(self):
        dataset = build_verification_dataset("Internet2")
        for strategy in ("contiguous", "bfs"):
            plans = [
                NetworkPartitioner(3, strategy).partition(dataset)
                for _ in range(2)
            ]
            assert plans[0] == plans[1]
            plan = plans[0]
            assert plan.num_devices == len(dataset.devices)
            covered = sorted(
                device for shard in plan.members for device in shard
            )
            assert covered == sorted(dataset.devices)

    def test_boundary_links_cross_shards(self):
        dataset = build_verification_dataset("Internet2")
        plan = NetworkPartitioner(3).partition(dataset)
        for src, dst in plan.boundary:
            assert plan.shard_of[src] != plan.shard_of[dst]
        intra = set(plan.links) - set(plan.boundary)
        for src, dst in intra:
            assert plan.shard_of[src] == plan.shard_of[dst]

    def test_shard_count_clamped_to_devices(self):
        dataset = random_dataset(num_nodes=3, rules_per_device=2, seed=1)
        plan = NetworkPartitioner(10).partition(dataset)
        assert plan.num_shards == 3
        assert all(len(shard) == 1 for shard in plan.members)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            NetworkPartitioner(0)
        with pytest.raises(ValueError):
            NetworkPartitioner(2, strategy="metis")


class TestShardedEqualsWhole:
    @pytest.mark.parametrize("name", ["Internet2", "Stanford"])
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_named_datasets_byte_identical(self, name, shards):
        dataset = build_verification_dataset(name)
        sources = sorted(dataset.devices)[:3]
        whole = whole_reference_document(dataset, sources=sources)
        verifier = ShardVerifier(dataset, shards=shards)
        assert documents_equal(
            verifier.comparison_document(sources), whole
        )

    @settings(**FUZZ_SETTINGS)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4))
    def test_random_dataplanes_byte_identical(self, seed, shards):
        dataset = random_dataset(
            num_nodes=6, rules_per_device=5, seed=seed, acl_fraction=0.4,
            name=f"prop-{seed}",
        )
        sources = sorted(dataset.devices)[:2]
        whole = whole_reference_document(dataset, sources=sources)
        for strategy in ("contiguous", "bfs"):
            verifier = ShardVerifier(
                dataset, shards=shards, strategy=strategy
            )
            assert documents_equal(
                verifier.comparison_document(sources), whole
            )

    def test_padding_is_semantically_inert(self):
        plain = build_verification_dataset("Internet2")
        padded = build_verification_dataset(
            "Internet2", rules_per_device=200
        )
        assert padded.total_rules > 2 * plain.total_rules
        assert documents_equal(
            whole_reference_document(plain),
            whole_reference_document(padded),
        )

    def test_unknown_source_raises(self):
        dataset = build_verification_dataset("Internet2")
        verifier = ShardVerifier(dataset, shards=2)
        with pytest.raises(KeyError):
            verifier.reachability("not-a-device")


class TestShardLocality:
    def test_engine_stats_independent_of_fleet(self):
        dataset = build_verification_dataset("Internet2")
        plan = NetworkPartitioner(3).partition(dataset)
        fleet = ShardVerifier(dataset, shards=3)
        for index, members in enumerate(plan.members):
            alone = build_shard_artifact(dataset, list(members), index)
            assert alone["engine"] == fleet.engine_stats()[index]

    def test_engines_have_distinct_node_tables(self):
        # Different shards do different BDD work: if the engines shared
        # a node table the per-shard stats would be coupled (monotone
        # across the fleet); instead each reports only its own nodes.
        dataset = build_verification_dataset("Stanford")
        verifier = ShardVerifier(dataset, shards=2)
        stats = verifier.engine_stats()
        total = sum(s["num_nodes"] for s in stats)
        for s in stats:
            assert 0 < s["num_nodes"] < total

    def test_modes_agree(self):
        # Builds run serially unless a pool or worker count is given;
        # the spawn-worker build must answer byte-identically, and both
        # report where they ran.
        from repro.serve import shared_pool

        dataset = build_verification_dataset("Internet2")
        sources = sorted(dataset.devices)[:2]
        obs.metrics.reset()
        serial = ShardVerifier(dataset, shards=2)
        pooled = ShardVerifier(dataset, shards=2, pool=shared_pool(workers=2))
        assert serial.mode == "serial"
        assert pooled.mode == "process"
        assert pooled.result_document(sources)["mode"] == "process"
        for mode in ("serial", "process"):
            assert obs.metrics.counter("shard.verifiers", mode=mode).value == 1
        assert documents_equal(
            serial.comparison_document(sources),
            pooled.comparison_document(sources),
        )


class TestStreaming:
    def _burst(self, dataset, count=8):
        import numpy as np

        rng = np.random.RandomState(9)
        nodes = sorted(dataset.devices)
        burst = []
        for k in range(count):
            node = nodes[int(rng.randint(len(nodes)))]
            ports = dataset.topology.successors(node)
            rule = ForwardingRule(
                _random_prefix(rng), ports[int(rng.randint(len(ports)))],
                priority=60 + k,
            )
            burst.append(("insert", node, rule))
        return burst

    def test_stream_matches_batch_after_burst(self):
        dataset = random_dataset(
            num_nodes=7, rules_per_device=5, seed=21, acl_fraction=0.3,
            name="stream-eq",
        )
        streamer = StreamingVerifier(dataset, shards=3)
        mutated = dataset.copy()
        for operation, device, rule in self._burst(dataset):
            record = streamer.apply(operation, device, rule)
            assert record["shard"] == streamer.plan.shard_of[device]
            mutated.devices[device].add_rule(rule)
        assert documents_equal(
            streamer.comparison_document(),
            whole_reference_document(mutated),
        )

    def test_update_touches_owning_shard_only(self):
        dataset = random_dataset(
            num_nodes=6, rules_per_device=4, seed=4, name="stream-local"
        )
        streamer = StreamingVerifier(dataset, shards=3)
        before = list(streamer.export_counts)
        device = streamer.plan.members[1][0]
        port = dataset.topology.successors(device)[0]
        streamer.apply(
            "insert", device,
            ForwardingRule(Prefix(0, 0), port, priority=70),
        )
        after = streamer.export_counts
        assert after[1] == before[1] + 1
        assert after[0] == before[0] and after[2] == before[2]

    def test_latency_stats_and_metrics(self):
        obs.metrics.reset()
        dataset = random_dataset(
            num_nodes=5, rules_per_device=4, seed=6, name="stream-lat"
        )
        streamer = StreamingVerifier(
            dataset, shards=2, sources=sorted(dataset.devices)[:1]
        )
        report = streamer.apply_burst(self._burst(dataset, count=6))
        assert report["burst"] == 6
        assert report["count"] == 6
        assert 0 < report["p50"] <= report["p95"] <= report["max"]
        snapshot = obs.metrics.snapshot()
        assert snapshot["shard.stream.updates"]["value"] == 6

    def test_unknown_device_and_operation_rejected(self):
        dataset = random_dataset(num_nodes=4, rules_per_device=3, seed=2)
        streamer = StreamingVerifier(dataset, shards=2)
        rule = ForwardingRule(Prefix(0, 0), "drop", priority=1)
        with pytest.raises(KeyError):
            streamer.apply("insert", "nope", rule)
        with pytest.raises(ValueError):
            streamer.apply("upsert", sorted(dataset.devices)[0], rule)
        with pytest.raises(KeyError):
            StreamingVerifier(dataset, shards=2, sources=["nope"])


class TestStoreReuse:
    def test_warm_store_skips_all_builds(self, tmp_path):
        obs.metrics.reset()
        dataset = build_verification_dataset("Internet2")
        store = ArtifactStore(tmp_path / "store")
        cold = ShardVerifier(dataset, shards=3, store=store)
        assert cold.store_hits == 0
        warm = ShardVerifier(dataset, shards=3, store=store)
        assert warm.store_hits == 3
        assert documents_equal(
            warm.comparison_document(), cold.comparison_document()
        )
        snapshot = obs.metrics.snapshot()
        assert snapshot['store.hit{category="shard"}']["value"] == 3

    def test_store_key_sensitive_to_plan(self, tmp_path):
        dataset = build_verification_dataset("Internet2")
        store = ArtifactStore(tmp_path / "store")
        ShardVerifier(dataset, shards=2, store=store)
        other = ShardVerifier(dataset, shards=3, store=store)
        assert other.store_hits == 0

    def test_stale_artifact_rejected(self):
        dataset = build_verification_dataset("Internet2")
        members = sorted(dataset.devices)[:2]
        artifact = build_shard_artifact(dataset, members, 0)
        check_artifact(artifact, members)
        with pytest.raises(ValueError):
            check_artifact(artifact, members[:1])
        with pytest.raises(ValueError):
            check_artifact({**artifact, "schema": "repro.shard/0"})


class TestCodec:
    def test_round_trip_preserves_fingerprint(self):
        dataset = random_dataset(
            num_nodes=5, rules_per_device=6, seed=13, acl_fraction=0.5,
            name="codec",
        )
        rebuilt = dataset_from_doc(dataset_to_doc(dataset))
        assert dataset_fingerprint(rebuilt) == dataset_fingerprint(dataset)
        assert documents_equal(
            whole_reference_document(rebuilt),
            whole_reference_document(dataset),
        )

    def test_fingerprint_tracks_content_not_name(self):
        a = random_dataset(num_nodes=4, rules_per_device=3, seed=1, name="x")
        b = random_dataset(num_nodes=4, rules_per_device=3, seed=2, name="x")
        assert dataset_fingerprint(a) != dataset_fingerprint(b)


class TestServeIntegration:
    def test_verify_job_gains_shards_param(self):
        from repro.serve.jobs import JobSpec, execute_job

        spec = JobSpec("verify", {"dataset": "Internet2", "shards": 3})
        payload = execute_job(spec)
        assert payload["ok"]
        assert payload["shards"] == 3
        assert len(payload["atoms_per_shard"]) == 3
        whole = execute_job(
            JobSpec("verify", {"dataset": "Internet2"})
        )
        assert whole["ok"]
        assert "atoms_per_shard" not in whole

    def test_shard_build_job_kind(self):
        from repro.serve.jobs import JobSpec, execute_job

        dataset = build_verification_dataset("Internet2")
        members = sorted(dataset.devices)[:3]
        spec = JobSpec("shard-build", {
            "dataset_doc": dataset_to_doc(dataset),
            "members": members,
            "index": 0,
        })
        got = dict(execute_job(spec))
        assert got["ok"]
        reference = build_shard_artifact(dataset, members, 0)
        for key in ("build_seconds", "engine"):
            got.pop(key), reference.pop(key)
        assert json.dumps(got, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_shard_build_params_validated(self):
        from repro.serve.jobs import JobSpec

        with pytest.raises(ValueError):
            JobSpec("shard-build", {"dataset_doc": {}, "members": []}).validate()
        with pytest.raises(ValueError):
            JobSpec("verify", {"shards": 0}).validate()


class TestLargePreset:
    def test_large_preset_hits_target_deterministically(self):
        dataset = build_large_dataset("Airtel", target_rules=20_000)
        again = build_large_dataset("Airtel", target_rules=20_000)
        assert dataset.name == "Airtel-large"
        assert dataset.total_rules >= 20_000
        assert dataset_fingerprint(dataset) == dataset_fingerprint(again)

    def test_apkeep_latency_stats_report_p95(self):
        from repro.apkeep import APKeepVerifier

        verifier = APKeepVerifier(build_verification_dataset("Internet2"))
        stats = verifier.update_latency_stats()
        assert stats["count"] == len(verifier.updates)
        assert 0 <= stats["p50"] <= stats["p95"] <= stats["max"]
