"""The built-in workload catalogue: every hot path, one benchmark each.

Imported (once) by :func:`repro.bench.registry.discover`; importing it
registers the whole catalogue.  Inputs are fixed and seeded -- named
synthetic datasets, fixed commodity counts, deterministic bursts -- so
two runs on the same revision time the *same* computation and artifact
``meta`` checksums (objectives, atom counts, satcounts) must match
across revisions unless an algorithm genuinely changed.

Layers covered:

* ``bdd``      -- prefix-BDD build + apply chains on both operation
  profiles, with computed-table statistics attached;
* ``ap``       -- atomic-predicate computation and all-pairs queries;
* ``apkeep``   -- full update-stream replay and post-build bursts;
* ``shard``    -- partitioned verification: the sharded-beats-whole
  spawn-worker pair (byte-equal result checksums), the streaming
  update-burst latency path, and a store-cold vs store-warm artifact
  pair on the 100k-rule large preset;
* ``te``       -- every registry solver, as ``.cold`` (tunnel cache
  cleared before each iteration) and ``.warm`` (cache primed) variants
  where the solver uses tunnels;
* ``lp``       -- the solve-session tier: a scale sweep solved cold vs
  carried on one warm LP session;
* ``parallel`` -- ``run_ordered`` fan-out overhead, serial vs threads;
* ``pipeline`` -- simulated-LLM reproduction runs end to end;
* ``obs``      -- telemetry-tier overhead: labeled metric hot path and
  disabled-span cost (what un-instrumented runs pay);
* ``fuzz``     -- differential-gate throughput: a fixed case window
  through a fast oracle subset, timed end to end;
* ``serve``    -- the service tier: a fixed job batch through the spawn
  worker pool, and the full HTTP submit/wait round trip.

The module-level helpers (:func:`bdd_profile_workload`,
:func:`apkeep_update_latency_rows`, :func:`ncflow_scaling_rows`,
:func:`demand_scale_series`) are also the workload bodies the
pytest-benchmark files under ``benchmarks/`` call, so the paper-shape
assertions there and the perf numbers here measure identical code.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.bench.registry import benchmark, register, BenchmarkSpec

#: Default TE benchmark instance: small enough that the full catalogue
#: smoke-runs in seconds, structured enough to exercise real LP models.
TE_INSTANCE = "B4"
TE_COMMODITIES = 30
TE_LOAD = 0.1

#: Default verification datasets for the AP / APKeep layers.
AP_DATASET = "Stanford"
APKEEP_DATASET = "Internet2"


# ----------------------------------------------------------------------
# Shared, deterministic input builders (memoised; setup hooks prime them
# so construction cost never lands inside a timed iteration).
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _te_instance(name: str = TE_INSTANCE):
    from repro.netmodel.instances import make_te_instance

    return make_te_instance(
        name, max_commodities=TE_COMMODITIES, total_demand_fraction=TE_LOAD
    )


@lru_cache(maxsize=None)
def _verification_dataset(name: str):
    from repro.netmodel.datasets import build_verification_dataset

    return build_verification_dataset(name)


@lru_cache(maxsize=None)
def _ap_verifier(name: str = AP_DATASET):
    from repro.ap import APVerifier

    return APVerifier(_verification_dataset(name))


@lru_cache(maxsize=None)
def _apkeep_verifier(name: str = APKEEP_DATASET):
    from repro.apkeep import APKeepVerifier

    return APKeepVerifier(_verification_dataset(name))


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
# AP layer
# ----------------------------------------------------------------------
@benchmark(
    "ap.build", layer="ap",
    description=f"AP predicate + atom computation, {AP_DATASET} dataset",
)
def bench_ap_build() -> Dict[str, object]:
    """Full AP verifier construction from a fresh dataset each iteration."""
    from repro.ap import APVerifier

    verifier = APVerifier(_verification_dataset(AP_DATASET))
    return {
        "num_atoms": verifier.num_atoms,
        "num_predicates": verifier.num_predicates,
    }


@benchmark(
    "ap.query_all_pairs", layer="ap",
    description=f"all-pairs selective-BFS reachability, {AP_DATASET} dataset",
    setup=lambda: _ap_verifier(),
)
def bench_ap_query_all_pairs() -> Dict[str, object]:
    """All-pairs reachability over a prebuilt verifier."""
    verifier = _ap_verifier()
    results = verifier.verify_all_pairs()
    reachable = sum(1 for atoms in results.values() if atoms)
    return {"pairs": len(results), "reachable": reachable}


# ----------------------------------------------------------------------
# APKeep layer
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

    rows = []
    for name in datasets:
        dataset = _verification_dataset(name)
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


@benchmark(
    "apkeep.build", layer="apkeep",
    description=f"APKeep full update-stream replay, {APKEEP_DATASET} dataset",
)
def bench_apkeep_build() -> Dict[str, object]:
    """Rebuild the incremental verifier from scratch each iteration."""
    from repro.apkeep import APKeepVerifier

    verifier = APKeepVerifier(_verification_dataset(APKEEP_DATASET))
    return {
        "num_atoms_minimal": verifier.num_atoms_minimal,
        "updates": len(verifier.updates),
    }


@benchmark(
    "apkeep.update_burst", layer="apkeep",
    description="incremental insert+remove burst on a prebuilt verifier",
    setup=lambda: _apkeep_verifier(),
)
def bench_apkeep_update_burst() -> Dict[str, object]:
    """Absorb a deterministic burst; state returns to baseline after."""
    verifier = _apkeep_verifier()
    burst = apkeep_burst(_verification_dataset(APKEEP_DATASET))
    verifier.batch_update(burst)
    return {"burst": len(burst), "num_atoms": verifier.num_atoms}


# ----------------------------------------------------------------------
# TE layer: every registry solver, cold and (where tunnels are used)
# warm tunnel-cache variants.
# ----------------------------------------------------------------------
def _register_te_benchmarks() -> None:
    """One ``.cold`` benchmark per registry solver plus a ``.warm``
    variant for tunnel-using solvers.

    Registered dynamically from :mod:`repro.te.registry`, so a newly
    registered solver is benchmarked without touching this module.
    """
    from repro.te import registry as te_registry
    from repro.te.tunnelcache import TUNNEL_CACHE

    @lru_cache(maxsize=None)
    def solver_for(name: str):
        return te_registry.make_solver(name)

    def solve_once(name: str) -> Dict[str, object]:
        instance = _te_instance()
        solution = solver_for(name).solve(instance.topology, instance.traffic)
        return {
            "objective": round(solution.objective, 4),
            "status": solution.status,
            "lp_count": solution.lp_count,
        }

    def make_run(name: str):
        def run() -> Dict[str, object]:
            return solve_once(name)
        return run

    def make_prime(name: str):
        def prime() -> None:
            _te_instance()
            solve_once(name)   # populates the tunnel cache, untimed
        return prime

    for name in te_registry.solver_names():
        spec = te_registry.get_spec(name)
        uses_tunnels = spec.capabilities.uses_tunnels
        if uses_tunnels:
            register(BenchmarkSpec(
                name=f"te.{name}.cold",
                layer="te",
                func=make_run(name),
                setup=lambda: _te_instance(),
                pre_iteration=TUNNEL_CACHE.clear,
                description=f"{name} solve, tunnel cache cleared per iteration",
                tags=("te-cold", "solver"),
            ))
            register(BenchmarkSpec(
                name=f"te.{name}.warm",
                layer="te",
                func=make_run(name),
                setup=make_prime(name),
                description=f"{name} solve, tunnel cache primed",
                tags=("te-warm", "solver"),
            ))
        else:
            register(BenchmarkSpec(
                name=f"te.{name}.solve",
                layer="te",
                func=make_run(name),
                setup=lambda: _te_instance(),
                description=f"{name} solve ({spec.capabilities.summary()})",
                tags=("solver",),
            ))


_register_te_benchmarks()


# ----------------------------------------------------------------------
# LP layer: the solve-session tier.  One explicit pair: a scale sweep
# solved cold vs carried on one warm session (``--filter lp.warm``
# selects exactly the pair).
# ----------------------------------------------------------------------
#: Instance for the warm-vs-cold sweep pair.  Deliberately bigger than
#: the ``te`` layer default: support reduction only pays once the LP is
#: large enough that a reduced solve is much cheaper than a full one.
LP_SWEEP_INSTANCE = "Kdl"
LP_SWEEP_COMMODITIES = 200

#: Scale factors for the warm-vs-cold sweep pair: enough near-identical
#: points that session reuse amortises the one cold solve per chain.
LP_SWEEP_SCALES = tuple(round(0.5 + 0.1 * i, 1) for i in range(12))


@lru_cache(maxsize=None)
def _lp_sweep_instance():
    from repro.netmodel.instances import make_te_instance

    return make_te_instance(
        LP_SWEEP_INSTANCE,
        max_commodities=LP_SWEEP_COMMODITIES,
        total_demand_fraction=TE_LOAD,
    )


def _lp_sweep(warm: bool) -> Dict[str, object]:
    """One pf4 scale sweep over :data:`LP_SWEEP_SCALES`; cold or warm."""
    from repro.te.demandscale import scale_sweep

    instance = _lp_sweep_instance()
    points = scale_sweep(
        instance.topology,
        instance.traffic,
        "pf4",
        scales=list(LP_SWEEP_SCALES),
        warm_start=warm,
    )
    return {
        "points": len(points),
        "objectives": [round(point.objective, 4) for point in points],
    }


def _prime_lp_sweep() -> None:
    """Untimed: build the instance and fill the tunnel cache, so both
    pair members time LP solves rather than k-shortest-paths."""
    _lp_sweep(warm=False)


@benchmark(
    "lp.warm_vs_cold.cold",
    layer="lp",
    description="pf4 scale sweep, every point solved cold",
    setup=_prime_lp_sweep,
    tags=("lp-session", "sweep"),
)
def bench_lp_sweep_cold() -> Dict[str, object]:
    """Cold half of the warm-vs-cold sweep pair."""
    return _lp_sweep(warm=False)


@benchmark(
    "lp.warm_vs_cold.warm",
    layer="lp",
    description="pf4 scale sweep, one warm LP session across all points",
    setup=_prime_lp_sweep,
    tags=("lp-session", "sweep"),
)
def bench_lp_sweep_warm() -> Dict[str, object]:
    """Warm half of the warm-vs-cold sweep pair."""
    return _lp_sweep(warm=True)


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

    instance = _te_instance()
    cache = TunnelCache(store=_bench_store(variant))
    tunnels = cache.lookup(instance.topology, instance.traffic, 4)
    return {"commodities": len(tunnels)}


@benchmark(
    "store.tunnels.cold", layer="store",
    description=f"tunnel lookup, empty store: Yen + write-through, {TE_INSTANCE}",
    pre_iteration=lambda: _bench_store("cold").clear(),
    tags=("store-cold",),
)
def bench_store_tunnels_cold() -> Dict[str, object]:
    """The store's write path: compute tunnels, persist them atomically."""
    return _store_tunnel_lookup("cold")


@benchmark(
    "store.tunnels.warm", layer="store",
    description=f"tunnel lookup, populated store: verified read, {TE_INSTANCE}",
    setup=lambda: _store_tunnel_lookup("warm"),
    tags=("store-warm",),
)
def bench_store_tunnels_warm() -> Dict[str, object]:
    """The store's read path: integrity-verified disk hit, no Yen."""
    return _store_tunnel_lookup("warm")


@benchmark(
    "store.put_get", layer="store",
    description="artifact put + verified get round-trip, 64-entry payload",
)
def bench_store_put_get() -> Dict[str, object]:
    """Raw store overhead: canonical encode, digest, write, verified read."""
    store = _bench_store("roundtrip")
    payload = [
        [f"n{i}", f"m{i}", [[f"n{i}", "via", f"m{i}"]]] for i in range(64)
    ]
    store.put("bench/roundtrip", payload)
    got = store.get("bench/roundtrip")
    return {"entries": len(got)}


# ----------------------------------------------------------------------
# Parallel layer
# ----------------------------------------------------------------------
_FANOUT_TASKS = 16
_FANOUT_WORK = 25_000


def _fanout(workers: int) -> Dict[str, object]:
    from repro.parallel import run_ordered

    def work() -> int:
        return sum(i * i for i in range(_FANOUT_WORK))

    results = run_ordered([work] * _FANOUT_TASKS, workers=workers)
    return {
        "tasks": _FANOUT_TASKS,
        "workers": workers,
        "checksum": sum(results) % 1_000_003,
    }


@benchmark(
    "parallel.fanout_serial", layer="parallel",
    description=f"run_ordered, {_FANOUT_TASKS} CPU tasks, workers=1",
)
def bench_parallel_fanout_serial() -> Dict[str, object]:
    """Serial baseline for the fan-out overhead comparison."""
    return _fanout(workers=1)


@benchmark(
    "parallel.fanout_threads", layer="parallel",
    description=f"run_ordered, {_FANOUT_TASKS} CPU tasks, workers=4",
)
def bench_parallel_fanout_threads() -> Dict[str, object]:
    """Thread fan-out of the identical task list (pool + ordering cost)."""
    return _fanout(workers=4)


# ----------------------------------------------------------------------
# Pipeline layer
# ----------------------------------------------------------------------
@benchmark(
    "pipeline.participant", layer="pipeline",
    description="simulated-LLM reproduction of APKeep (participant C), end to end",
)
def bench_pipeline_participant() -> Dict[str, object]:
    """One full pipeline run: prompts, debugging, assembly, validation."""
    from repro.experiments import run_participant

    report = run_participant("C")
    return {
        "succeeded": report.succeeded,
        "prompts": report.num_prompts,
    }


@benchmark(
    "pipeline.motivating", layer="pipeline",
    description="the rock-paper-scissors motivating example session",
)
def bench_pipeline_motivating() -> Dict[str, object]:
    """Replay the motivating example's four-prompt session."""
    from repro.motivating import run_motivating_session

    result = run_motivating_session()
    return {
        "prompts": result.num_prompts,
        "total_loc": result.total_loc,
    }


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
# fuzz: differential-gate throughput
# ----------------------------------------------------------------------
_FUZZ_CASES = 4


@benchmark(
    "fuzz.cases_per_second", layer="fuzz",
    description=f"{_FUZZ_CASES}-case sweep through the fast dataplane "
                "and TE-bounds oracles",
)
def bench_fuzz_cases_per_second() -> Dict[str, object]:
    """Throughput of the standing differential gate's hot loop.

    A fixed seed window through the cheap oracle subset (no
    minimization, no store) times exactly what a CI fuzz-smoke second
    buys; the oracle-run count is the checksum, so a silently skipped
    oracle fails the artifact comparison.
    """
    from repro.fuzz import run_fuzz

    report = run_fuzz(
        seed=7,
        cases=_FUZZ_CASES,
        oracle_filter=[
            "ap.vs-apkeep", "apkeep.incremental-vs-batch", "te.bounds",
        ],
        minimize=False,
    )
    if not report.ok:
        raise AssertionError("fuzz bench sweep found failures:\n"
                             + report.render())
    return {
        "cases": report.cases_run,
        "oracle_runs": report.oracle_runs,
        "checksum": report.oracle_runs,
    }


# ----------------------------------------------------------------------
# serve: service-tier throughput
# ----------------------------------------------------------------------
#: Jobs per timed pool iteration: enough to amortise dispatch overhead,
#: small enough that the catalogue still smoke-runs in seconds.
_SERVE_JOBS = 8


def _serve_job_specs():
    from repro.serve import JobSpec

    # CPU-bound spin probes with distinct seeds: no store/memo layer
    # can collapse the batch, so every iteration runs all of them on
    # the spawn workers.
    return [
        JobSpec("probe", {"action": "spin"}, seed=index)
        for index in range(_SERVE_JOBS)
    ]


def _serve_batch_checksum(outcomes) -> str:
    import hashlib

    digest = hashlib.blake2b(digest_size=8)
    for outcome in outcomes:
        digest.update(outcome.payload["digest"].encode())
    return digest.hexdigest()


@benchmark(
    "serve.pool.multiprocess", layer="serve",
    description=f"{_SERVE_JOBS}-job batch through the spawn worker pool",
    setup=lambda: __import__("repro.serve", fromlist=["shared_pool"])
    .shared_pool(workers=2).start(),
)
def bench_serve_pool_multiprocess() -> Dict[str, object]:
    """An ordered batch of spin jobs on spawned worker processes.

    Uses the process-wide shared pool (started untimed in ``setup``) so
    iterations time job dispatch + execution + result transport, not
    interpreter start.
    """
    from repro.serve import run_jobs, shared_pool

    pool = shared_pool(workers=2)
    outcomes = run_jobs(_serve_job_specs(), pool=pool)
    if not all(outcome.ok for outcome in outcomes):
        raise AssertionError("serve bench batch had failures")
    return {"jobs": len(outcomes),
            "checksum": _serve_batch_checksum(outcomes)}


@benchmark(
    "serve.http.roundtrip", layer="serve",
    description="submit -> wait -> result over live HTTP, one probe job",
)
def bench_serve_http_roundtrip() -> Dict[str, object]:
    """Full client-observed service latency for one trivial job.

    One daemon with one spawn worker is kept on the function object
    across iterations (a daemon per iteration would time socket binding
    and worker boot, not the service), so the timed body is exactly the
    client round trip the ``repro submit --wait`` flow performs.
    """
    from repro.serve import ReproDaemon, ServeClient

    daemon = getattr(bench_serve_http_roundtrip, "_daemon", None)
    if daemon is None:
        daemon = ReproDaemon(workers=1)
        daemon.start()
        bench_serve_http_roundtrip._daemon = daemon
    client = ServeClient(daemon.url)
    seed = getattr(bench_serve_http_roundtrip, "_seed", 0)
    bench_serve_http_roundtrip._seed = seed + 1
    record = client.submit("probe", {"action": "ok"}, seed=seed)
    final = client.wait(record["id"], timeout=30.0)
    if final["state"] != "completed":
        raise AssertionError(f"roundtrip job failed: {final}")
    payload = client.result(final["id"])["payload"]
    return {"jobs": 1, "checksum": int(payload["ok"])}


# ----------------------------------------------------------------------
# Shard layer: partitioned data-plane verification
# ----------------------------------------------------------------------
#: Reachability sources the shard verify pair answers for.
_SHARD_SOURCES = 4

#: Updates per streaming-burst iteration (insert/remove pairs, so the
#: data plane returns to its initial state after every iteration).
_SHARD_BURST = 24


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
    tags=("shard-pair",),
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
    tags=("shard-pair",),
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


@benchmark(
    "shard.stream.burst", layer="shard",
    description=f"{_SHARD_BURST}-update streaming burst, per-update "
                "re-verification latency (p95 in meta)",
)
def bench_shard_stream_burst() -> Dict[str, object]:
    """Bounded-latency incremental path: one rule-change burst.

    A :class:`repro.shard.StreamingVerifier` is kept on the function
    object (building per-shard APKeep state is setup, not the measured
    path); each iteration applies insert/remove pairs that cancel, so
    every burst starts from the identical data plane.  ``p95_ms`` is
    the per-update end-to-end re-verification latency the CI streaming
    check bounds.
    """
    from repro.netmodel.datasets import random_dataset
    from repro.netmodel.headerspace import HEADER_BITS, Prefix
    from repro.netmodel.rules import ForwardingRule
    from repro.shard import StreamingVerifier

    streamer = getattr(bench_shard_stream_burst, "_streamer", None)
    if streamer is None:
        dataset = random_dataset(
            num_nodes=10, rules_per_device=60, seed=11, acl_fraction=0.3,
            name="bench-stream",
        )
        streamer = StreamingVerifier(dataset, shards=2)
        bench_shard_stream_burst._streamer = streamer

    nodes = sorted(streamer.dataset.devices)
    burst = []
    for k in range(_SHARD_BURST // 2):
        node = nodes[k % len(nodes)]
        port = streamer.dataset.topology.successors(node)[0]
        prefix = Prefix((k << (HEADER_BITS - 8)) & 0xFF00, 8)
        rule = ForwardingRule(prefix, port, priority=90 + k)
        burst.append(("insert", node, rule))
        burst.append(("remove", node, rule))
    report = streamer.apply_burst(burst)
    return {
        "updates": report["burst"],
        "p95_ms": round(report["p95"] * 1e3, 3),
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
    tags=("store-cold",),
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
    tags=("store-warm",),
)
def bench_shard_build_warm() -> Dict[str, object]:
    """The read path the ``shard/1`` key family buys: a warm store turns
    re-verification into artifact decode + stitching."""
    return _shard_store_verify("shard-warm")
