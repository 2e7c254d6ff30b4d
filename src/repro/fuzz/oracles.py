"""The differential-oracle registry: named correctness cross-checks.

An *oracle* takes one generated :class:`~repro.fuzz.generators.FuzzCase`
and checks a correctness property by running two (or more) independent
implementations against each other -- exact vs approximate, batch vs
incremental, warm vs cold -- raising :class:`OracleFailure` on any
divergence.  The registry mirrors :mod:`repro.te.registry`: oracles are
registered by name, discoverable (``repro fuzz run --oracle list``),
and unknown names raise :class:`UnknownOracleError` with close-match
suggestions.

The built-in catalogue (see each ``ORACLE_*`` docstring below) promotes
the equivalence logic that previously lived only in
``tests/test_fuzz_equivalence.py`` and ``tests/test_lp_session.py`` into
library code, so the pytest suite and the standing ``repro fuzz`` gate
share one implementation:

* ``te.solver-pairs``          -- every registry solver vs the exact
  edge-formulation optimum (feasibility bound + exact agreement);
* ``te.warm-equals-cold``      -- per warm-capable solver, a warm
  session chain must match per-scale cold solves;
* ``te.bounds``                -- objective/flow invariants and
  monotonicity in demand scale;
* ``ap.vs-apkeep``             -- batch AP vs incremental APKeep atoms
  and per-pair reachability;
* ``ap.vs-bruteforce``         -- AP reachability vs a per-address
  forwarding walk;
* ``ap.bfs-vs-enumeration``    -- the two AP reachability algorithms;
* ``apkeep.incremental-vs-batch`` -- an update burst applied
  incrementally vs a fresh batch build of the final state;
* ``bdd.profiles``             -- the jdd and javabdd BDD profiles must
  see identical atoms, loops and blackholes;
* ``dataplane.sharded-vs-whole`` -- partitioned shard-local
  verification stitched back together must equal the unsharded AP
  verifier byte-for-byte, across shard counts and strategies;
* ``dataplane.stream-vs-batch`` -- the case's update burst streamed
  through per-shard APKeep deltas must equal a whole-network batch
  rebuild of the final state;
* ``campaign.multiprocess-vs-inprocess`` -- the same campaign job run
  in-process and through the :mod:`repro.serve` spawn worker pool must
  produce byte-identical summaries.

:func:`register_planted_defect` adds the deliberately lying warm LP
backend (``planted.warm-liar``) used by tests and the CI fuzz-smoke job
to prove the pipeline catches, shrinks and replays a real defect.
"""

from __future__ import annotations

import difflib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.fuzz import generators
from repro.fuzz.generators import FuzzCase

#: Relative tolerance for objective comparisons between solvers that
#: should agree exactly (two LP solves of the same model).
_EXACT_TOL = 1e-6


class OracleFailure(AssertionError):
    """A differential oracle observed a divergence (the fuzzer's prize).

    Distinct from an oracle *crash* (any other exception): a failure
    means two implementations disagreed; a crash means the oracle or
    the system under test blew up.  The runner records both, but only
    failures are evidence of a correctness bug by construction.
    """

    def __init__(self, oracle: str, message: str):
        self.oracle = oracle
        super().__init__(f"{oracle}: {message}")


class UnknownOracleError(KeyError):
    """Raised when an oracle name is not in the registry."""

    def __init__(self, name: str, known: List[str]):
        self.oracle_name = name
        self.known = known
        self.suggestions = difflib.get_close_matches(name, known, n=3,
                                                     cutoff=0.4)
        message = f"unknown fuzz oracle {name!r}"
        if self.suggestions:
            message += "; did you mean: " + ", ".join(self.suggestions) + "?"
        message += f" (registered: {', '.join(known)})"
        super().__init__(message)

    def __str__(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class OracleSpec:
    """A registered oracle: name, case kind, check function, blurb.

    ``check(case)`` raises :class:`OracleFailure` on divergence and
    returns ``None`` when the property holds; any other exception is a
    crash the runner isolates.
    """

    name: str
    kind: str
    check: Callable[[FuzzCase], None]
    description: str = ""


_REGISTRY: Dict[str, OracleSpec] = {}


def register(spec: OracleSpec, replace: bool = False) -> OracleSpec:
    """Add ``spec`` to the registry; re-registration requires ``replace``."""
    if spec.kind not in generators.KINDS:
        raise ValueError(
            f"oracle kind must be one of {generators.KINDS}, got {spec.kind!r}"
        )
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"oracle {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> OracleSpec:
    """Remove and return a registered oracle spec."""
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise UnknownOracleError(name, oracle_names()) from None


def oracle_names() -> List[str]:
    """All registered oracle names, sorted."""
    return sorted(_REGISTRY)


def get_spec(name: str) -> OracleSpec:
    """The :class:`OracleSpec` for ``name``; raises :class:`UnknownOracleError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownOracleError(name, oracle_names()) from None


def specs_for_kind(kind: str) -> List[OracleSpec]:
    """Registered oracles that consume ``kind`` cases, name-sorted."""
    return [_REGISTRY[name] for name in oracle_names()
            if _REGISTRY[name].kind == kind]


def run_oracle(oracle, case: FuzzCase) -> None:
    """Run one oracle (by name or spec) against ``case``.

    Raises :class:`OracleFailure` on divergence, ``ValueError`` when the
    case kind does not match the oracle's kind.
    """
    spec = get_spec(oracle) if isinstance(oracle, str) else oracle
    if case.kind != spec.kind:
        raise ValueError(
            f"oracle {spec.name!r} wants {spec.kind!r} cases, got {case.kind!r}"
        )
    spec.check(case)


def render_table() -> str:
    """Plain-text oracle catalogue (``repro fuzz run --oracle list``)."""
    lines = [f"{'oracle':<28} {'kind':<10} description"]
    for name in oracle_names():
        spec = _REGISTRY[name]
        lines.append(f"{name:<28} {spec.kind:<10} {spec.description}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# TE / LP oracles
# ----------------------------------------------------------------------
def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def _check_solver_pairs(case: FuzzCase) -> None:
    """Every registry solver vs the exact edge-formulation optimum.

    The edge formulation is the unrestricted optimum, so every max-flow
    solver -- path-restricted, approximate, or failure-aware (whose
    scenario capacities never exceed nominal) -- must stay within it;
    solvers advertising ``exact`` must *match* it.  MLU solvers are
    checked for a sane (nonnegative, optimal-status) utilisation.
    """
    from repro.te import registry

    topology, traffic, _scales = generators.materialize_te(case.data)
    optimum = registry.solve("edge", topology, traffic).objective
    for name in registry.solver_names():
        spec = registry.get_spec(name)
        solution = registry.make_solver(name).solve(topology, traffic)
        if not solution.ok:
            raise OracleFailure(
                "te.solver-pairs",
                f"{name} returned status {solution.status} on a feasible "
                f"instance ({case.data['name']})",
            )
        if spec.capabilities.objective == "min-mlu":
            if solution.objective < -1e-9:
                raise OracleFailure(
                    "te.solver-pairs",
                    f"{name} reported negative MLU {solution.objective:.6g}",
                )
            continue
        if solution.objective < -1e-9:
            raise OracleFailure(
                "te.solver-pairs",
                f"{name} reported negative flow {solution.objective:.6g}",
            )
        if solution.objective > optimum + _EXACT_TOL * max(1.0, optimum):
            raise OracleFailure(
                "te.solver-pairs",
                f"{name} objective {solution.objective:.6g} exceeds the "
                f"edge optimum {optimum:.6g}",
            )
        if spec.capabilities.exact and _relative_gap(
            solution.objective, optimum
        ) > _EXACT_TOL:
            raise OracleFailure(
                "te.solver-pairs",
                f"exact solver {name} objective {solution.objective:.6g} "
                f"!= edge optimum {optimum:.6g}",
            )


def _check_warm_equals_cold(case: FuzzCase) -> None:
    """Per warm-capable solver: a warm chain must match per-scale cold.

    One warm solver instance carries its LP session across the case's
    demand-scale chain (so the second and later solves genuinely take
    the reduced-model path); a fresh cold solver answers each scale
    independently.  Status must always agree.  Solvers whose
    capabilities advertise ``warm_start_exact`` must match objectives
    exactly -- the pricing loop runs to optimality, so warm is an
    optimisation, never an approximation.  Non-exact warm solvers
    (ncflow: the session steers a heuristic partition search) are held
    to :data:`repro.te.registry.WARM_APPROX_RELATIVE_BOUND` instead;
    ``tests/test_lp_session.py`` pins the recorded divergence instances
    that forced the split.
    """
    from repro.te import registry

    topology, traffic, scales = generators.materialize_te(case.data)
    warm_capable = [
        name for name in registry.solver_names()
        if registry.get_spec(name).capabilities.supports_warm_start
    ]
    for name in warm_capable:
        exact = registry.get_spec(name).capabilities.warm_start_exact
        bound = _EXACT_TOL if exact else registry.WARM_APPROX_RELATIVE_BOUND
        warm_solver = registry.make_solver(name, warm=True)
        for scale in scales:
            scaled = traffic.scaled(scale)
            warm = warm_solver.solve(topology, scaled)
            cold = registry.make_solver(name).solve(topology, scaled)
            if warm.status != cold.status:
                raise OracleFailure(
                    "te.warm-equals-cold",
                    f"{name} scale {scale:g}: warm status {warm.status} "
                    f"!= cold {cold.status}",
                )
            if _relative_gap(warm.objective, cold.objective) > bound:
                raise OracleFailure(
                    "te.warm-equals-cold",
                    f"{name} scale {scale:g}: warm objective "
                    f"{warm.objective:.6g} vs cold {cold.objective:.6g} "
                    f"exceeds the {'exact' if exact else 'approx'} bound "
                    f"{bound:g}",
                )


def _check_te_bounds(case: FuzzCase) -> None:
    """Objective and per-commodity invariants for the max-flow solvers.

    For the edge and pf4 solvers across the scale chain: objectives are
    nonnegative, never exceed total demand, are nondecreasing in scale
    (the feasible region only grows), and no commodity is granted more
    flow than it asked for.
    """
    from repro.te import registry

    topology, traffic, scales = generators.materialize_te(case.data)
    for name in ("edge", "pf4"):
        previous = None
        for scale in sorted(scales):
            scaled = traffic.scaled(scale)
            solution = registry.make_solver(name).solve(topology, scaled)
            total = scaled.total_demand
            if solution.objective < -1e-9:
                raise OracleFailure(
                    "te.bounds",
                    f"{name} scale {scale:g}: negative objective "
                    f"{solution.objective:.6g}",
                )
            if solution.objective > total + _EXACT_TOL * max(1.0, total):
                raise OracleFailure(
                    "te.bounds",
                    f"{name} scale {scale:g}: objective "
                    f"{solution.objective:.6g} exceeds total demand "
                    f"{total:.6g}",
                )
            if previous is not None and solution.objective < (
                previous - _EXACT_TOL * max(1.0, previous)
            ):
                raise OracleFailure(
                    "te.bounds",
                    f"{name}: objective decreased from {previous:.6g} to "
                    f"{solution.objective:.6g} as scale grew to {scale:g}",
                )
            previous = solution.objective
            for (src, dst), flow in solution.flow_per_commodity.items():
                demand = scaled.demand(src, dst)
                if flow < -_EXACT_TOL or flow > demand + _EXACT_TOL * max(
                    1.0, demand
                ):
                    raise OracleFailure(
                        "te.bounds",
                        f"{name} scale {scale:g}: commodity {src}->{dst} "
                        f"flow {flow:.6g} outside [0, {demand:.6g}]",
                    )


# ----------------------------------------------------------------------
# Dataplane oracles
# ----------------------------------------------------------------------
def brute_force_reaches(dataset, src: str, dst: str, address: int) -> bool:
    """Follow the forwarding tables one address at a time.

    The reference semantics every BDD-based verifier is checked against:
    per-hop ACL filtering, longest-priority lookup, loop detection via a
    visited set, and drop/self termination.
    """
    from repro.netmodel.rules import DROP_PORT, SELF_PORT

    device = src
    visited = set()
    if not dataset.devices[src].acl_permits(address):
        return False
    while True:
        if device == dst:
            return True
        if device in visited:
            return False
        visited.add(device)
        port = dataset.devices[device].lookup(address)
        if port in (DROP_PORT, SELF_PORT):
            return False
        if port not in dataset.devices:
            return False
        if not dataset.devices[port].acl_permits(address):
            return False
        device = port


def _node_pairs(dataset) -> List:
    nodes = dataset.topology.nodes
    pairs = []
    for src in nodes[:2]:
        for dst in nodes[-2:]:
            if src != dst:
                pairs.append((src, dst))
    return pairs


def _check_ap_vs_apkeep(case: FuzzCase) -> None:
    """Batch AP vs incremental APKeep on the same BDD engine.

    The minimal APKeep atom count must equal AP's, and for sampled
    (src, dst) pairs the union BDD of reachable atoms must be the
    *identical* predicate.
    """
    from repro.ap import APVerifier
    from repro.apkeep import APKeepVerifier
    from repro.bdd.builder import new_engine
    from repro.bdd.engine import BDD_FALSE

    dataset, _updates = generators.materialize_dataplane(case.data)
    engine = new_engine("jdd")
    ap = APVerifier(dataset, engine=engine)
    apkeep = APKeepVerifier(dataset, engine=engine)
    if apkeep.num_atoms_minimal != ap.num_atoms:
        raise OracleFailure(
            "ap.vs-apkeep",
            f"APKeep minimal atoms {apkeep.num_atoms_minimal} != AP atoms "
            f"{ap.num_atoms}",
        )
    for src, dst in _node_pairs(dataset):
        want = ap.atomics.union_bdd(ap.reachable_atoms(src, dst).atoms)
        got = BDD_FALSE
        for atom in apkeep.reachable_atoms(src, dst):
            got = engine.or_(got, apkeep.ppm.atoms[atom])
        if got != want:
            raise OracleFailure(
                "ap.vs-apkeep", f"reachability {src}->{dst} differs"
            )


def _check_ap_vs_bruteforce(case: FuzzCase) -> None:
    """AP reachability vs the per-address brute-force walk.

    Samples 40 addresses (deterministically from the case's schedule
    slot, so shrinking never changes the probe set) and requires the
    BDD answer and the forwarding walk to agree on each.
    """
    from repro.ap import APVerifier
    from repro.netmodel.headerspace import HEADER_BITS

    dataset, _updates = generators.materialize_dataplane(case.data)
    verifier = APVerifier(dataset)
    nodes = dataset.topology.nodes
    src, dst = nodes[0], nodes[-1]
    if src == dst:
        return
    result = verifier.reachable_atoms(src, dst)
    rng = random.Random(
        generators.case_seed(case.seed, case.index, "addresses")
    )
    for _ in range(40):
        address = rng.randrange(1 << HEADER_BITS)
        assignment = {
            i: bool((address >> (HEADER_BITS - 1 - i)) & 1)
            for i in range(HEADER_BITS)
        }
        in_atoms = any(
            verifier.engine.evaluate(verifier.atomics.atoms[a], assignment)
            for a in result.atoms
        )
        walked = brute_force_reaches(dataset, src, dst, address)
        if in_atoms != walked:
            raise OracleFailure(
                "ap.vs-bruteforce",
                f"address {address:#06x} {src}->{dst}: AP says {in_atoms}, "
                f"forwarding walk says {walked}",
            )


def _check_bfs_vs_enumeration(case: FuzzCase) -> None:
    """AP's BFS reachability vs explicit path enumeration."""
    from repro.ap import APVerifier

    dataset, _updates = generators.materialize_dataplane(case.data)
    verifier = APVerifier(dataset)
    for src, dst in _node_pairs(dataset):
        bfs = verifier.reachable_atoms(src, dst)
        enum = verifier.reachable_atoms_by_path_enumeration(src, dst)
        if bfs.atoms != enum.atoms:
            raise OracleFailure(
                "ap.bfs-vs-enumeration",
                f"{src}->{dst}: BFS atoms {sorted(bfs.atoms)} != "
                f"enumeration {sorted(enum.atoms)}",
            )


def _check_incremental_vs_batch(case: FuzzCase) -> None:
    """The case's update burst applied incrementally vs a batch rebuild.

    Inserts every update through ``APKeepVerifier.insert_rule`` while
    mirroring it into a copy of the dataset, then builds a fresh
    verifier of the final state on the *same* engine; atom counts and
    per-pair reachability predicates must agree.
    """
    from repro.apkeep import APKeepVerifier
    from repro.bdd.builder import new_engine
    from repro.bdd.engine import BDD_FALSE

    dataset, updates = generators.materialize_dataplane(case.data)
    engine = new_engine("jdd")
    verifier = APKeepVerifier(dataset, engine=engine)
    final = dataset.copy()
    for node, rule in updates:
        if node not in final.devices:
            continue
        verifier.insert_rule(node, rule)
        final.devices[node].add_rule(rule)
    fresh = APKeepVerifier(final, engine=engine)
    if verifier.num_atoms_minimal != fresh.num_atoms_minimal:
        raise OracleFailure(
            "apkeep.incremental-vs-batch",
            f"incremental minimal atoms {verifier.num_atoms_minimal} != "
            f"batch {fresh.num_atoms_minimal} after "
            f"{len(updates)} updates",
        )

    def union(v, src, dst):
        out = BDD_FALSE
        for atom in v.reachable_atoms(src, dst):
            out = engine.or_(out, v.ppm.atoms[atom])
        return out

    for src, dst in _node_pairs(final):
        if union(verifier, src, dst) != union(fresh, src, dst):
            raise OracleFailure(
                "apkeep.incremental-vs-batch",
                f"reachability {src}->{dst} differs after update burst",
            )


def _check_sharded_vs_whole(case: FuzzCase) -> None:
    """Sharded verification vs the unsharded AP verifier, byte equality.

    Partitions the case's dataset into 1..3 shards under both
    strategies, runs :class:`~repro.shard.verifier.ShardVerifier`
    (serial mode: the determinism baseline) and compares its canonical
    result document -- per-source reachability interval sets plus
    scoped blackholes -- byte-for-byte against the whole-network
    reference export.  This is the tentpole equality the shard tier
    promises: partitioning is an execution strategy, never a semantics
    change.
    """
    import json

    from repro.shard import (
        ShardVerifier,
        whole_reference_document,
    )
    from repro.shard.partition import STRATEGIES

    dataset, _updates = generators.materialize_dataplane(case.data)
    sources = [src for src, _dst in _node_pairs(dataset)] or list(
        dataset.topology.nodes[:1]
    )
    reference = json.dumps(
        whole_reference_document(dataset, sources=sources), sort_keys=True
    )
    for strategy in STRATEGIES:
        for shards in (1, 2, 3):
            sharded = ShardVerifier(
                dataset, shards=shards, strategy=strategy
            )
            got = json.dumps(
                sharded.comparison_document(sources=sources), sort_keys=True
            )
            if got != reference:
                raise OracleFailure(
                    "dataplane.sharded-vs-whole",
                    f"{shards} shards ({strategy}) diverge from the "
                    f"unsharded verifier on {case.data['name']}",
                )


def _check_stream_vs_batch(case: FuzzCase) -> None:
    """Streaming sharded updates vs a whole-network batch rebuild.

    Feeds the case's update burst through
    :class:`~repro.shard.streaming.StreamingVerifier` (per-shard APKeep
    deltas, affected-shard re-export, re-stitch) while mirroring each
    rule into a dataset copy, then requires the streamed state's
    canonical document to equal a from-scratch whole-network
    verification of the final dataset -- byte-for-byte.
    """
    import json

    from repro.shard import StreamingVerifier, whole_reference_document

    dataset, updates = generators.materialize_dataplane(case.data)
    sources = [src for src, _dst in _node_pairs(dataset)] or list(
        dataset.topology.nodes[:1]
    )
    streaming = StreamingVerifier(dataset, shards=2, sources=sources)
    final = dataset.copy()
    applied = 0
    for node, rule in updates:
        if node not in final.devices:
            continue
        streaming.apply("insert", node, rule)
        final.devices[node].add_rule(rule)
        applied += 1
    got = json.dumps(
        streaming.comparison_document(sources=sources), sort_keys=True
    )
    want = json.dumps(
        whole_reference_document(final, sources=sources), sort_keys=True
    )
    if got != want:
        raise OracleFailure(
            "dataplane.stream-vs-batch",
            f"streamed state diverges from batch rebuild after "
            f"{applied} updates on {case.data['name']}",
        )


def _check_bdd_profiles(case: FuzzCase) -> None:
    """The jdd and javabdd BDD profiles must verify identically.

    Same dataset through :class:`~repro.ap.APVerifier` on both engine
    profiles: identical atom counts, identical loop cycles, identical
    blackhole devices.
    """
    from repro.ap import APVerifier
    from repro.bdd.builder import new_engine

    dataset, _updates = generators.materialize_dataplane(case.data)
    results = {}
    for profile in ("jdd", "javabdd"):
        verifier = APVerifier(dataset, engine=new_engine(profile))
        loops = sorted(tuple(report.cycle) for report in verifier.find_loops())
        blackholes = sorted(
            report.device
            for report in verifier.find_blackholes(
                scope=verifier.allocated_atoms()
            )
        )
        results[profile] = (verifier.num_atoms, loops, blackholes)
    if results["jdd"] != results["javabdd"]:
        raise OracleFailure(
            "bdd.profiles",
            f"jdd saw {results['jdd']}, javabdd saw {results['javabdd']}",
        )


# ----------------------------------------------------------------------
# Campaign (service tier) oracles
# ----------------------------------------------------------------------
def _check_campaign_pool_vs_local(case: FuzzCase) -> None:
    """The same campaign job executed in-process vs in a spawn worker.

    The service tier's core determinism claim: where a job runs must
    not change what it computes.  The job executes once in this
    process and once through the process-wide spawn worker pool
    (:func:`repro.serve.shared_pool`, so repeated cases amortise the
    worker start), and the two payloads -- including the byte-exact
    ``summary`` text -- must be identical.

    Skipped under an active fault plan: fault injection is
    process-local state that does not propagate into spawn workers, so
    the two sides would legitimately diverge.
    """
    from repro.resilience import faults
    from repro.serve import run_jobs, shared_pool
    from repro.serve.jobs import execute_job

    if faults.active() is not None:
        return
    spec = generators.materialize_campaign(case.data)
    local = execute_job(spec)
    pool = shared_pool(workers=1)
    outcome = run_jobs([spec], pool=pool)[0]
    if not outcome.ok:
        raise OracleFailure(
            "campaign.multiprocess-vs-inprocess",
            f"worker-pool run failed [{outcome.failure}] "
            f"{outcome.error}: {outcome.message}",
        )
    if outcome.payload != local:
        diverging = sorted(
            key for key in set(local) | set(outcome.payload)
            if local.get(key) != outcome.payload.get(key)
        )
        raise OracleFailure(
            "campaign.multiprocess-vs-inprocess",
            f"payloads diverge on {diverging} for papers "
            f"{case.data['papers']} styles {case.data['styles']}",
        )


# ----------------------------------------------------------------------
# Planted defect (tests + CI fuzz-smoke)
# ----------------------------------------------------------------------
#: Name the planted-defect oracle registers under.
PLANTED_ORACLE = "planted.warm-liar"


class LyingWarmBackend:
    """A warm-capable LP backend whose *warm* results are quietly wrong.

    Cold solves are exact (delegated to the fast backend); a solve that
    genuinely took the reduced-model path gets its objective shaved by
    5%.  This is precisely the failure mode the warm==cold oracle
    exists to catch -- a fast path that silently diverges -- and the
    pipeline must find it, shrink it, and replay it end to end.
    """

    name = "lying-warm"
    supports_warm_start = True

    def __init__(self):
        from repro.lp import FastLPBackend

        self._inner = FastLPBackend()

    def solve(self, model):
        """Exact cold solve (the lie lives only in the warm path)."""
        return self._inner.solve(model)

    def session(self):
        """A warm session that perturbs true warm-solve objectives."""
        return _LyingWarmSession(self)


class _LyingWarmSession:
    def __init__(self, backend):
        from repro.lp.session import WarmStartSession

        self._inner = WarmStartSession(backend)
        self.stats = self._inner.stats

    def solve(self, model, warm_start=None):
        from repro.lp.model import SolveStatus

        before_warm = self.stats.warm_solves
        before_fallbacks = self.stats.fallbacks
        result = self._inner.solve(model, warm_start)
        took_warm_path = (
            self.stats.warm_solves > before_warm
            and self.stats.fallbacks == before_fallbacks
        )
        if took_warm_path and result.status is SolveStatus.OPTIMAL:
            result.objective *= 0.95
        return result


def _check_planted_warm_liar(case: FuzzCase) -> None:
    """warm==cold for pf4, but against the lying warm backend.

    Identical in shape to ``te.warm-equals-cold`` restricted to one
    solver -- which is the point: the planted defect is caught by the
    exact check the real oracle performs.
    """
    from repro.te import registry

    topology, traffic, scales = generators.materialize_te(case.data)
    warm_solver = registry.make_solver(
        "pf4", backend=LyingWarmBackend(), warm=True
    )
    for scale in scales:
        scaled = traffic.scaled(scale)
        warm = warm_solver.solve(topology, scaled)
        cold = registry.make_solver("pf4").solve(topology, scaled)
        if warm.status != cold.status or _relative_gap(
            warm.objective, cold.objective
        ) > _EXACT_TOL:
            raise OracleFailure(
                PLANTED_ORACLE,
                f"scale {scale:g}: warm objective {warm.objective:.6g} != "
                f"cold {cold.objective:.6g}",
            )


def register_planted_defect(replace: bool = True) -> OracleSpec:
    """Register the deliberately-lying warm backend oracle; returns it.

    Exposed to the CLI as ``repro fuzz run --plant-defect`` and used by
    the minimizer tests and the CI ``fuzz-smoke`` job.  ``replace=True``
    makes repeated registration (CLI run then repro) idempotent.
    """
    return register(OracleSpec(
        PLANTED_ORACLE, "te", _check_planted_warm_liar,
        "deliberately lying warm LP backend (pipeline self-test)",
    ), replace=replace)


# ----------------------------------------------------------------------
# Built-in registration
# ----------------------------------------------------------------------
register(OracleSpec(
    "te.solver-pairs", "te", _check_solver_pairs,
    "every registry solver vs the exact edge-formulation optimum",
))
register(OracleSpec(
    "te.warm-equals-cold", "te", _check_warm_equals_cold,
    "warm LP session chain == per-scale cold solves, per warm solver",
))
register(OracleSpec(
    "te.bounds", "te", _check_te_bounds,
    "objective/flow invariants + monotonicity in demand scale",
))
register(OracleSpec(
    "ap.vs-apkeep", "dataplane", _check_ap_vs_apkeep,
    "batch AP vs incremental APKeep atoms and reachability",
))
register(OracleSpec(
    "ap.vs-bruteforce", "dataplane", _check_ap_vs_bruteforce,
    "AP reachability vs per-address forwarding walk",
))
register(OracleSpec(
    "ap.bfs-vs-enumeration", "dataplane", _check_bfs_vs_enumeration,
    "AP BFS reachability vs explicit path enumeration",
))
register(OracleSpec(
    "apkeep.incremental-vs-batch", "dataplane", _check_incremental_vs_batch,
    "update burst applied incrementally vs fresh batch rebuild",
))
register(OracleSpec(
    "bdd.profiles", "dataplane", _check_bdd_profiles,
    "jdd vs javabdd engine profiles on identical verification work",
))
register(OracleSpec(
    "dataplane.sharded-vs-whole", "dataplane", _check_sharded_vs_whole,
    "sharded interval stitching vs unsharded AP, byte-identical",
))
register(OracleSpec(
    "dataplane.stream-vs-batch", "dataplane", _check_stream_vs_batch,
    "streamed shard deltas vs whole-network batch rebuild",
))
register(OracleSpec(
    "campaign.multiprocess-vs-inprocess", "campaign",
    _check_campaign_pool_vs_local,
    "same campaign job in-process vs spawn worker, byte-identical",
))
