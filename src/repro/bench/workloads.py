"""The built-in workload catalogue: one bench pair per fast path.

Imported (once) by :func:`repro.bench.registry.discover`; importing it
registers the whole catalogue.  A fast path stays in the repository only
while its pair shows it winning and both sides compute the same answer,
so every pair times one job two ways on the traffic the fast path
actually serves, and both sides report the same ``meta`` field
(objectives, satcount, checksum, atom counts) for the artifact to
compare.  Inputs are fixed and seeded, so two runs on the same revision
time the *same* computation.

Layers covered:

* ``bdd``   -- the paper's BDD-library ratio: one build + apply chain
  on the JDD and JavaBDD operation profiles (equal ``satcount``);
* ``shard`` -- whole vs sharded verification (equal ``checksum``), and
  shard artifacts built into an empty vs a populated store on the
  100k-rule large preset (equal ``atoms`` and ``rules``);
* ``te``    -- the in-memory tunnel cache on a re-solve series: one
  topology's fixed commodity set re-solved over seeded volume
  intervals, cache cleared per interval vs primed (equal
  ``objectives``);
* ``lp``    -- a pf4 scale sweep solved cold, carried on one warm LP
  session, and fanned out over two threads (equal ``objectives``);
* ``store`` -- tunnel lookup against an empty vs a populated disk
  store (equal ``commodities``);
* ``obs``   -- telemetry overhead guards, not pairs: the labeled metric
  hot path and the disabled-span cost CI holds to a budget.

The module-level helpers (:func:`bdd_profile_workload`,
:func:`apkeep_update_latency_rows`, :func:`ncflow_scaling_rows`,
:func:`demand_scale_series`) are the workload bodies of the
pytest-benchmark files under ``benchmarks/``; only the BDD one is also
timed here.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.bench.registry import benchmark

#: Total demand, as a fraction of capacity, of every TE input here.  The
#: inputs come from memoised builders that setup hooks prime, so their
#: construction never lands inside a timed iteration.
TE_LOAD = 0.1


# ----------------------------------------------------------------------
# BDD layer
# ----------------------------------------------------------------------
def bdd_profile_workload(engine) -> int:
    """A predicate-computation-shaped workload: build prefix BDDs at
    mixed lengths and refine an accumulator through them repeatedly.

    The body participant D's slowdown hinges on; both the registry
    benchmarks and ``benchmarks/test_bench_bdd_profiles.py`` run it.
    """
    from repro.bdd.builder import prefix_to_bdd
    from repro.netmodel.headerspace import Prefix

    prefixes = [
        Prefix((value << 8) & 0xFF00, 8) for value in range(0, 256, 2)
    ]
    prefixes += [
        Prefix((value << 6) & 0xFFC0, 10) for value in range(0, 512, 8)
    ]
    nodes = [prefix_to_bdd(engine, p) for p in prefixes]
    acc = nodes[0]
    for _ in range(3):
        for node in nodes[1:]:
            union = engine.or_(acc, node)
            inter = engine.and_(acc, node)
            acc = engine.diff(union, inter)
    return engine.satcount(acc)


def _bdd_profile_bench(profile: str) -> Dict[str, object]:
    from repro.bdd.builder import new_engine

    engine = new_engine(profile)
    satcount = bdd_profile_workload(engine)
    stats = engine.stats()
    return {
        "satcount": satcount,
        "num_nodes": stats["num_nodes"],
        "cache_hit_ratio": round(stats["cache_hit_ratio"], 4),
        "cache_hits": stats["cache_hits"],
        "cache_misses": stats["cache_misses"],
    }


@benchmark(
    "bdd.build_apply", layer="bdd",
    description="prefix-BDD build + or/and/diff chain, JDD profile",
)
def bench_bdd_build_apply() -> Dict[str, object]:
    """Fresh JDD engine per iteration; meta carries the cache stats."""
    return _bdd_profile_bench("jdd")


@benchmark(
    "bdd.javabdd_profile", layer="bdd",
    description="same workload on the JavaBDD profile (cache dropped per call)",
)
def bench_bdd_javabdd_profile() -> Dict[str, object]:
    """The slow operation profile on the identical workload."""
    return _bdd_profile_bench("javabdd")


# ----------------------------------------------------------------------
# APKeep update latency (a figure-suite helper, not a registry workload)
# ----------------------------------------------------------------------
def apkeep_burst(dataset) -> List[Tuple[str, str, object]]:
    """A deterministic insert+remove burst: a /4 override on every
    device, removed again so verifier state is unchanged afterwards."""
    from repro.netmodel.headerspace import Prefix
    from repro.netmodel.rules import ForwardingRule

    burst = []
    for node in dataset.topology.nodes:
        neighbors = dataset.topology.successors(node)
        if not neighbors:
            continue
        rule = ForwardingRule(Prefix(0xF000, 4), neighbors[0], priority=99)
        burst.append(("insert", node, rule))
        burst.append(("remove", node, rule))
    return burst


def apkeep_update_latency_rows(datasets: Sequence[str]) -> List[Dict[str, float]]:
    """Per-dataset update-latency rows: replay each dataset as an update
    stream, then time a post-build :func:`apkeep_burst`.

    The workload behind ``benchmarks/test_bench_apkeep_updates.py``.
    """
    from repro.apkeep import APKeepVerifier
    from repro.netmodel.datasets import build_verification_dataset

    rows = []
    for name in datasets:
        dataset = build_verification_dataset(name)
        verifier = APKeepVerifier(dataset)
        stats = verifier.update_latency_stats()
        burst = apkeep_burst(dataset)
        start = time.perf_counter()
        verifier.batch_update(burst)
        burst_seconds = time.perf_counter() - start
        rows.append(
            {
                "name": name,
                "updates": stats["count"],
                "mean_us": stats["mean"] * 1e6,
                "p99_us": stats["p99"] * 1e6,
                "burst": len(burst),
                "burst_us": burst_seconds / max(len(burst), 1) * 1e6,
            }
        )
    return rows


# ----------------------------------------------------------------------
# TE layer: the in-memory tunnel cache, timed on the re-solve traffic it
# serves.  Tunnels depend only on the topology and the commodity set,
# so re-solving one commodity set at new volumes is a cache hit.
# ----------------------------------------------------------------------
#: The tunnel pair's re-solve series: one NCFlow topology whose fixed
#: commodity set is re-solved over :data:`TE_TUNNEL_INTERVALS`
#: intervals, each with seeded log-normal volume factors (sigma
#: :data:`TE_TUNNEL_SIGMA`) rescaled to the same total load.
TE_TUNNEL_INSTANCE = "Erdos17"
TE_TUNNEL_COMMODITIES = 300
TE_TUNNEL_INTERVALS = 4
TE_TUNNEL_SIGMA = 0.15


@lru_cache(maxsize=None)
def _te_tunnel_series():
    """``(topology, [traffic per interval])`` for the tunnel pair."""
    import numpy as np

    from repro.netmodel.instances import make_te_instance
    from repro.netmodel.traffic import TrafficMatrix

    instance = make_te_instance(
        TE_TUNNEL_INSTANCE,
        max_commodities=TE_TUNNEL_COMMODITIES,
        total_demand_fraction=TE_LOAD,
    )
    base = instance.traffic.demands
    keys = sorted(base)
    rng = np.random.RandomState(7)
    series = []
    for _ in range(TE_TUNNEL_INTERVALS):
        factors = rng.lognormal(0.0, TE_TUNNEL_SIGMA, size=len(keys))
        raw = [base[key] * factor for key, factor in zip(keys, factors)]
        scale = instance.traffic.total_demand / sum(raw)
        series.append(TrafficMatrix(
            {key: value * scale for key, value in zip(keys, raw)}
        ))
    return instance.topology, series


def _te_tunnels(cold: bool) -> Dict[str, object]:
    """Solve every interval with ncflow, then pf4.

    ``cold`` clears the tunnel cache before each interval, so every
    interval pays Yen's algorithm the way a fresh commodity set does.
    """
    from repro.te import registry
    from repro.te.tunnelcache import TUNNEL_CACHE

    topology, series = _te_tunnel_series()
    objectives = []
    for traffic in series:
        if cold:
            TUNNEL_CACHE.clear()
        for solver in ("ncflow", "pf4"):
            solution = registry.solve(solver, topology, traffic)
            objectives.append(round(solution.objective, 4))
    return {"intervals": len(series), "objectives": objectives}


@benchmark(
    "te.tunnels.cold", layer="te",
    description=f"ncflow + pf4 over {TE_TUNNEL_INTERVALS} re-solve "
                f"intervals, {TE_TUNNEL_INSTANCE}, cache cleared per interval",
    setup=_te_tunnel_series,
)
def bench_te_tunnels_cold() -> Dict[str, object]:
    """Slow side of the tunnel-cache pair: Yen's algorithm every interval."""
    return _te_tunnels(cold=True)


@benchmark(
    "te.tunnels.warm", layer="te",
    description=f"ncflow + pf4 over {TE_TUNNEL_INTERVALS} re-solve "
                f"intervals, {TE_TUNNEL_INSTANCE}, cache primed",
    setup=lambda: _te_tunnels(cold=False),
)
def bench_te_tunnels_warm() -> Dict[str, object]:
    """Fast side of the tunnel-cache pair: every lookup is a hit."""
    return _te_tunnels(cold=False)


# ----------------------------------------------------------------------
# LP layer: one pf4 scale sweep timed three ways.  ``lp.sweep.cold`` is
# the baseline for both fast paths a sweep can take: one warm LP
# session across the points, or the points fanned out over threads.
# Each setup runs the sweep once, untimed, to build the instance and
# fill the tunnel cache, so the workloads time LP solves only.
# ----------------------------------------------------------------------
#: Instance for the sweep workloads.  Bigger than the store pair's:
#: support reduction only pays once the LP is large enough that a
#: reduced solve is much cheaper than a full one.
LP_SWEEP_INSTANCE = "Kdl"
LP_SWEEP_COMMODITIES = 200

#: Scale factors for the sweep workloads: enough near-identical points
#: that session reuse amortises the one cold solve per chain.
LP_SWEEP_SCALES = tuple(round(0.5 + 0.1 * i, 1) for i in range(12))


@lru_cache(maxsize=None)
def _lp_sweep_instance():
    from repro.netmodel.instances import make_te_instance

    return make_te_instance(
        LP_SWEEP_INSTANCE,
        max_commodities=LP_SWEEP_COMMODITIES,
        total_demand_fraction=TE_LOAD,
    )


def _lp_sweep(warm: bool = False, workers: int = 1) -> Dict[str, object]:
    """One pf4 scale sweep over :data:`LP_SWEEP_SCALES`."""
    from repro.te.demandscale import scale_sweep

    instance = _lp_sweep_instance()
    points = scale_sweep(
        instance.topology,
        instance.traffic,
        "pf4",
        scales=list(LP_SWEEP_SCALES),
        workers=workers,
        warm_start=warm,
    )
    return {
        "points": len(points),
        "objectives": [round(point.objective, 4) for point in points],
    }


@benchmark(
    "lp.sweep.cold",
    layer="lp",
    description="pf4 scale sweep, every point solved cold",
    setup=_lp_sweep,
)
def bench_lp_sweep_cold() -> Dict[str, object]:
    """The baseline both sweep fast paths are measured against."""
    return _lp_sweep()


@benchmark(
    "lp.sweep.warm",
    layer="lp",
    description="pf4 scale sweep, one warm LP session across all points",
    setup=_lp_sweep,
)
def bench_lp_sweep_warm() -> Dict[str, object]:
    """The warm-session fast path on the identical sweep."""
    return _lp_sweep(warm=True)


@benchmark(
    "lp.sweep.threads",
    layer="lp",
    description="pf4 scale sweep, points solved cold on 2 threads",
    setup=_lp_sweep,
)
def bench_lp_sweep_threads() -> Dict[str, object]:
    """The thread fan-out ``repro te --sweep --workers 2`` takes."""
    return _lp_sweep(workers=2)


def ncflow_scaling_rows(
    instances: Sequence[str],
    max_commodities: int = 300,
    total_demand_fraction: float = 0.1,
) -> List[Dict[str, float]]:
    """NCFlow vs exact optimum vs ablations over named instances.

    The workload behind ``benchmarks/test_bench_ncflow_scaling.py``:
    per instance, time the exact edge-formulation LP, the NCFlow
    decomposition, the random-partition ablation, and Fleischer's FPTAS.
    """
    from repro.netmodel.instances import make_te_instance
    from repro.te import solve_fleischer, solve_max_flow_edge
    from repro.te.ncflow import NCFlowSolver

    rows = []
    for name in instances:
        instance = make_te_instance(
            name,
            max_commodities=max_commodities,
            total_demand_fraction=total_demand_fraction,
        )
        start = time.perf_counter()
        exact = solve_max_flow_edge(instance.topology, instance.traffic)
        exact_seconds = time.perf_counter() - start
        start = time.perf_counter()
        ncflow = NCFlowSolver().solve(instance.topology, instance.traffic)
        ncflow_seconds = time.perf_counter() - start
        random_based = NCFlowSolver(partitioners=["random"]).solve(
            instance.topology, instance.traffic
        )
        start = time.perf_counter()
        fleischer = solve_fleischer(
            instance.topology, instance.traffic, epsilon=0.2
        )
        fleischer_seconds = time.perf_counter() - start
        rows.append(
            {
                "name": name,
                "nodes": instance.topology.num_nodes,
                "exact": exact.objective,
                "exact_seconds": exact_seconds,
                "ncflow": ncflow.objective,
                "ncflow_seconds": ncflow_seconds,
                "random": random_based.objective,
                "fleischer": fleischer.objective,
                "fleischer_seconds": fleischer_seconds,
            }
        )
    return rows


def demand_scale_series(
    scales: Sequence[float],
    instance_name: str = "Colt",
    max_commodities: int = 200,
    total_demand_fraction: float = 0.05,
):
    """The satisfied-fraction-vs-scale series TE papers plot.

    The workload behind ``benchmarks/test_bench_scale_sweep.py``:
    returns ``(max_feasible_scale, pf4 points, ncflow points)``.
    """
    from repro.netmodel.instances import make_te_instance
    from repro.te import max_feasible_scale, scale_sweep, solve_max_flow
    from repro.te.ncflow import NCFlowSolver

    instance = make_te_instance(
        instance_name,
        max_commodities=max_commodities,
        total_demand_fraction=total_demand_fraction,
    )
    feasible = max_feasible_scale(instance.topology, instance.traffic)
    pf4_points = scale_sweep(
        instance.topology,
        instance.traffic,
        lambda topo, tm: solve_max_flow(topo, tm),
        list(scales),
    )
    solver = NCFlowSolver()
    ncflow_points = scale_sweep(
        instance.topology,
        instance.traffic,
        lambda topo, tm: solver.solve(topo, tm),
        list(scales),
    )
    return feasible, pf4_points, ncflow_points


# ----------------------------------------------------------------------
# Store layer: the persistent tier, cold vs warm.  The pair quantifies
# what the disk store buys: ``cold`` pays Yen's algorithm plus the
# write-through; ``warm`` starts every iteration with an empty memory
# cache and a populated store, so it pays only the verified disk read.
# ----------------------------------------------------------------------
#: Instance for the store pair: small enough that a tunnel lookup is a
#: few milliseconds, so the disk read is what the warm side times.
STORE_INSTANCE = "B4"
STORE_COMMODITIES = 30


@lru_cache(maxsize=None)
def _store_instance():
    from repro.netmodel.instances import make_te_instance

    return make_te_instance(
        STORE_INSTANCE,
        max_commodities=STORE_COMMODITIES,
        total_demand_fraction=TE_LOAD,
    )


@lru_cache(maxsize=None)
def _bench_store(variant: str):
    """A scratch :class:`repro.store.ArtifactStore` per workload variant.

    Lives under the system temp directory: bench runs must never write
    into (or read from) a store the user actually operates.
    """
    import tempfile

    from repro.store import ArtifactStore

    return ArtifactStore(
        tempfile.mkdtemp(prefix=f"repro-bench-store-{variant}-")
    )


def _store_tunnel_lookup(variant: str) -> Dict[str, object]:
    """One tunnel lookup through a fresh memory cache + the variant's store."""
    from repro.te.tunnelcache import TunnelCache

    instance = _store_instance()
    cache = TunnelCache(store=_bench_store(variant))
    tunnels = cache.lookup(instance.topology, instance.traffic, 4)
    return {"commodities": len(tunnels)}


@benchmark(
    "store.tunnels.cold", layer="store",
    description="tunnel lookup, empty store: Yen + write-through, "
                f"{STORE_INSTANCE}",
    pre_iteration=lambda: _bench_store("cold").clear(),
)
def bench_store_tunnels_cold() -> Dict[str, object]:
    """The store's write path: compute tunnels, persist them atomically."""
    return _store_tunnel_lookup("cold")


@benchmark(
    "store.tunnels.warm", layer="store",
    description="tunnel lookup, populated store: verified read, "
                f"{STORE_INSTANCE}",
    setup=lambda: _store_tunnel_lookup("warm"),
)
def bench_store_tunnels_warm() -> Dict[str, object]:
    """The store's read path: integrity-verified disk hit, no Yen."""
    return _store_tunnel_lookup("warm")


# ----------------------------------------------------------------------
# Obs layer (telemetry overhead guards)
# ----------------------------------------------------------------------
_OBS_OPS = 20_000


@benchmark(
    "obs.metrics_labeled", layer="obs",
    description=f"{_OBS_OPS} labeled counter incs + histogram observes "
                "on a private registry",
)
def bench_obs_metrics_labeled() -> Dict[str, object]:
    """Hot-path cost of the labeled metrics tier.

    A private registry (not the process-global one) so iterations do
    not accumulate state, exercising the decorated-name lookup, the
    family-total propagation, and the reservoir write.
    """
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    backends = ("fast-highs", "slow-pulp")
    for index in range(_OBS_OPS):
        backend = backends[index & 1]
        registry.counter("lp.solves", backend=backend).inc()
        registry.histogram("lp.solve_seconds", backend=backend).observe(
            (index % 97) / 1000.0
        )
    snap = registry.snapshot()
    return {
        "ops": _OBS_OPS * 2,
        "series": len(snap),
        "checksum": int(snap["lp.solves"]["value"]),
    }


@benchmark(
    "obs.span_disabled", layer="obs",
    description=f"{_OBS_OPS} spans with the NOOP tracer installed "
                "(disabled-telemetry overhead)",
)
def bench_obs_span_disabled() -> Dict[str, object]:
    """Overhead of instrumentation when nothing is collecting.

    This is the cost every un-instrumented run pays; the CI bench guard
    holds it to the regression gate so the telemetry tier stays free
    when off.
    """
    from repro import obs

    total = 0
    for index in range(_OBS_OPS):
        with obs.span("bench.noop", index=index):
            total += index
    return {"ops": _OBS_OPS, "checksum": total % 1_000_003}


# ----------------------------------------------------------------------
# Shard layer: partitioned data-plane verification
# ----------------------------------------------------------------------
#: Reachability sources the shard verify pair answers for.
_SHARD_SOURCES = 4


@lru_cache(maxsize=None)
def _shard_bench_dataset():
    """The verify-pair input: a predicate-dense random data plane.

    Random overlapping rules (unlike shortest-path FIBs) make the
    atomic-predicate computation superlinear in predicate count, which
    is exactly the regime where partitioning pays: each shard refines
    only its own predicates, so sharded wins even before process
    parallelism kicks in.
    """
    from repro.netmodel.datasets import random_dataset

    return random_dataset(
        num_nodes=64, rules_per_device=300, seed=7, acl_fraction=0.25,
        name="bench-shard",
    )


def _shard_sources() -> List[str]:
    return sorted(_shard_bench_dataset().devices)[:_SHARD_SOURCES]


def _shard_doc_checksum(document) -> str:
    import hashlib
    import json

    return hashlib.blake2b(
        json.dumps(document, sort_keys=True).encode(), digest_size=8
    ).hexdigest()


@benchmark(
    "shard.verify.whole", layer="shard",
    description="unsharded APVerifier: build + reachability/blackhole "
                "documents, 64-device random data plane",
)
def bench_shard_verify_whole() -> Dict[str, object]:
    """Baseline of the sharded-beats-whole pair: one engine, one thread.

    Times the full unsharded answer -- predicate extraction, atomic
    predicates, reachability for :data:`_SHARD_SOURCES` sources, and
    blackholes -- through the same canonical-interval export the
    sharded side stitches, so the pair's checksums must be equal.
    """
    from repro.shard import whole_reference_document

    dataset = _shard_bench_dataset()
    document = whole_reference_document(dataset, sources=_shard_sources())
    return {
        "rules": dataset.total_rules,
        "checksum": _shard_doc_checksum(document),
    }


@benchmark(
    "shard.verify.sharded", layer="shard",
    description="3-shard ShardVerifier through spawn workers, same "
                "documents as shard.verify.whole",
    setup=lambda: __import__("repro.serve", fromlist=["shared_pool"])
    .shared_pool(workers=2).start(),
)
def bench_shard_verify_sharded() -> Dict[str, object]:
    """The other side of the pair: shard-local engines, spawn fan-out.

    Each worker builds one shard's artifact in its own BDD node table
    (the pool is started untimed in ``setup``); the parent stitches the
    interval artifacts.  On a multi-core runner this must beat
    ``shard.verify.whole`` -- the CI shard-smoke job asserts it -- and
    its checksum must equal the whole side's byte for byte.
    """
    from repro.serve import shared_pool
    from repro.shard import ShardVerifier

    dataset = _shard_bench_dataset()
    verifier = ShardVerifier(dataset, shards=3, pool=shared_pool(workers=2))
    document = verifier.comparison_document(_shard_sources())
    return {
        "rules": dataset.total_rules,
        "checksum": _shard_doc_checksum(document),
    }


@lru_cache(maxsize=None)
def _shard_large_dataset():
    from repro.netmodel.datasets import build_large_dataset

    return build_large_dataset("Airtel", target_rules=100_000)


def _shard_store_verify(variant: str) -> Dict[str, object]:
    """One 100k-rule ShardVerifier build against the variant's store."""
    from repro.shard import ShardVerifier

    dataset = _shard_large_dataset()
    verifier = ShardVerifier(dataset, shards=2, store=_bench_store(variant))
    return {
        "rules": dataset.total_rules,
        "store_hits": verifier.store_hits,
        "atoms": sum(a["atoms"] for a in verifier.artifacts),
    }


@benchmark(
    "shard.build.cold", layer="shard",
    description="2-shard artifact build, empty store: full BDD work + "
                "write-through, 100k-rule large preset",
    pre_iteration=lambda: _bench_store("shard-cold").clear(),
    repeat=2,
)
def bench_shard_build_cold() -> Dict[str, object]:
    """The store's write path at scale: per-shard BDD builds persisted."""
    return _shard_store_verify("shard-cold")


@benchmark(
    "shard.build.warm", layer="shard",
    description="2-shard artifact load, populated store: no BDD engine "
                "touched, 100k-rule large preset",
    setup=lambda: _shard_store_verify("shard-warm"),
)
def bench_shard_build_warm() -> Dict[str, object]:
    """The read path the ``shard/1`` key family buys: a warm store turns
    re-verification into artifact decode + stitching."""
    return _shard_store_verify("shard-warm")
