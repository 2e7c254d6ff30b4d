"""Tests for the unified TE solver layer: registry, backends, tunnel cache.

The equivalence tests are the refactor's safety net: every registered
solver must return *bitwise-identical* objectives to the pre-refactor
direct entry points on fixed instances.
"""

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.lp import FastLPBackend, SlowLPBackend
from repro.netmodel.topology import Topology
from repro.netmodel.traffic import TrafficMatrix
from repro.te import (
    TUNNEL_CACHE,
    registry,
    solve_fleischer,
    solve_max_flow,
    solve_max_flow_edge,
    solve_min_mlu,
    topology_fingerprint,
)
from repro.te.arrow import ArrowSolver, single_fiber_scenarios
from repro.te.ncflow import NCFlowSolver

ALL_SOLVERS = [
    "arrow-code", "arrow-none", "arrow-paper", "arrow-ticket",
    "edge", "fleischer", "mlu", "ncflow", "pf4",
]


def two_cluster_topology():
    """Two triangles joined by two cross links; fibers on every link."""
    topo = Topology("two-cluster")
    left = ["a1", "a2", "a3"]
    right = ["b1", "b2", "b3"]
    for node in left + right:
        topo.add_node(node)
    for group in (left, right):
        for i in range(3):
            topo.add_bidi_link(group[i], group[(i + 1) % 3], 10.0)
    topo.add_bidi_link("a1", "b1", 6.0)
    topo.add_bidi_link("a3", "b2", 4.0)
    return topo


def cross_traffic():
    return TrafficMatrix({
        ("a1", "b3"): 5.0,
        ("a2", "b2"): 4.0,
        ("b1", "a2"): 3.0,
        ("a1", "a3"): 2.0,
        ("b2", "b3"): 1.5,
    })


class TestRegistryBasics:
    def test_all_solvers_registered(self):
        assert registry.solver_names() == ALL_SOLVERS

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(registry.UnknownSolverError) as excinfo:
            registry.make_solver("ncflw")
        assert "ncflow" in str(excinfo.value)
        assert "ncflow" in excinfo.value.suggestions

    def test_spec_lookup_and_capabilities(self):
        spec = registry.get_spec("edge")
        assert spec.capabilities.exact
        assert not spec.capabilities.uses_tunnels
        assert not registry.get_spec("fleischer").capabilities.uses_lp
        assert registry.get_spec("arrow-code").capabilities.failure_aware

    def test_solver_satisfies_protocol(self):
        solver = registry.make_solver("pf4")
        assert isinstance(solver, registry.TESolver)
        assert solver.name == "pf4"

    def test_duplicate_registration_rejected(self):
        spec = registry.get_spec("pf4")
        with pytest.raises(ValueError):
            registry.register(spec)
        # replace=True re-registers in place (used by extensions).
        registry.register(spec, replace=True)

    def test_solve_calls_counted(self):
        obs.metrics.reset()
        registry.solve("pf4", two_cluster_topology(), cross_traffic())
        assert obs.metrics.counter("solver.solve_calls").value == 1
        assert obs.metrics.counter("solver.solve_calls", solver="pf4").value == 1


class TestRegistryEquivalence:
    """Registry-resolved solvers == pre-refactor direct entry points."""

    topo = two_cluster_topology()
    traffic = cross_traffic()

    def assert_same(self, via_registry, direct):
        assert via_registry.objective == direct.objective
        assert via_registry.flow_per_commodity == direct.flow_per_commodity
        assert via_registry.status == direct.status

    def test_pf4(self):
        self.assert_same(
            registry.solve("pf4", self.topo, self.traffic),
            solve_max_flow(self.topo, self.traffic),
        )

    def test_edge(self):
        self.assert_same(
            registry.solve("edge", self.topo, self.traffic),
            solve_max_flow_edge(self.topo, self.traffic),
        )

    def test_mlu(self):
        self.assert_same(
            registry.solve("mlu", self.topo, self.traffic),
            solve_min_mlu(self.topo, self.traffic),
        )

    def test_fleischer(self):
        self.assert_same(
            registry.solve("fleischer", self.topo, self.traffic),
            solve_fleischer(self.topo, self.traffic),
        )

    def test_ncflow(self):
        self.assert_same(
            registry.solve("ncflow", self.topo, self.traffic),
            NCFlowSolver().solve(self.topo, self.traffic),
        )

    @pytest.mark.parametrize("variant", ["paper", "code", "none", "ticket"])
    def test_arrow_variants(self, variant):
        scenarios = single_fiber_scenarios(self.topo, limit=4)
        self.assert_same(
            registry.solve(
                f"arrow-{variant}", self.topo, self.traffic,
                scenarios=scenarios,
            ),
            ArrowSolver(variant=variant).solve(self.topo, self.traffic, scenarios),
        )

    def test_backend_injection_by_name_and_instance(self):
        by_name = registry.solve("pf4", self.topo, self.traffic, backend="slow")
        by_instance = registry.solve(
            "pf4", self.topo, self.traffic, backend=SlowLPBackend()
        )
        default = registry.solve(
            "pf4", self.topo, self.traffic, backend=FastLPBackend()
        )
        assert by_name.objective == pytest.approx(default.objective)
        assert by_instance.objective == pytest.approx(default.objective)

    def test_options_forwarded(self):
        k1 = registry.solve("pf4", self.topo, self.traffic, num_paths=1)
        k4 = registry.solve("pf4", self.topo, self.traffic, num_paths=4)
        assert k1.objective <= k4.objective + 1e-9


@st.composite
def random_instance(draw):
    """Small connected topology (ring + chords) with integer demands."""
    n = draw(st.integers(min_value=4, max_value=6))
    nodes = [f"n{i}" for i in range(n)]
    topo = Topology("random")
    for node in nodes:
        topo.add_node(node)
    for i in range(n):
        cap = draw(st.integers(min_value=1, max_value=20))
        topo.add_bidi_link(nodes[i], nodes[(i + 1) % n], float(cap))
    chords = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=3,
    ))
    for a, b in chords:
        if a != b and not topo.has_link(nodes[a], nodes[b]):
            cap = draw(st.integers(min_value=1, max_value=20))
            topo.add_bidi_link(nodes[a], nodes[b], float(cap))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=1, max_size=5,
    ))
    demands = {}
    for a, b in pairs:
        if a != b:
            demands[(nodes[a], nodes[b])] = float(
                draw(st.integers(min_value=1, max_value=15))
            )
    return topo, TrafficMatrix(demands)


class TestObjectiveBounds:
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(random_instance())
    def test_every_max_flow_solver_bounded_by_edge_optimum(self, instance):
        topo, traffic = instance
        exact = solve_max_flow_edge(topo, traffic).objective
        for name in registry.solver_names():
            spec = registry.get_spec(name)
            if spec.capabilities.objective != "max-flow":
                continue
            solution = registry.solve(name, topo, traffic)
            assert solution.objective >= -1e-9, name
            assert solution.objective <= exact * (1 + 1e-6) + 1e-6, name


class TestNcflowOverAdmission:
    """Regression pin: ncflow reports more flow than the edge optimum.

    On this 4-node ring the modularity partition {n0,n1},{n2,n3} puts
    both commodities in one bundle.  Each R2 segment is a
    single-commodity flow from pooled sources to pooled sinks, so n0's
    unit leaves on n0->n3 and is counted as n1->n3's.  Every link stays
    within capacity, but the per-commodity flow ncflow reports (4.0)
    does not exist: the exact edge optimum is 3.0.  This is the case
    ``test_every_max_flow_solver_bounded_by_edge_optimum`` draws at
    random.  Fixing it changes what ncflow computes, so it is left
    open (ROADMAP); strict xfail flags the fix when it lands.
    """

    @pytest.mark.xfail(
        strict=True,
        reason="ncflow credits pooled R2 flow to the wrong commodity",
    )
    def test_ncflow_bounded_by_edge_optimum(self):
        topo = Topology("ncflow-over-admission")
        for i in range(4):
            topo.add_node(f"n{i}")
        for src, dst, cap in (("n0", "n1", 1.0), ("n1", "n2", 2.0),
                              ("n2", "n3", 1.0), ("n3", "n0", 2.0)):
            topo.add_bidi_link(src, dst, cap)
        traffic = TrafficMatrix({("n0", "n2"): 1.0, ("n1", "n3"): 3.0})
        exact = solve_max_flow_edge(topo, traffic).objective
        solution = registry.solve("ncflow", topo, traffic)
        assert solution.objective <= exact * (1 + 1e-6) + 1e-6


class TestTunnelCache:
    def test_fingerprint_ignores_capacities_but_not_structure(self):
        a = two_cluster_topology()
        b = two_cluster_topology()
        b.set_capacity("a1", "b1", 1.0)
        assert topology_fingerprint(a) == topology_fingerprint(b)
        b.add_bidi_link("a2", "b3", 5.0)
        assert topology_fingerprint(a) != topology_fingerprint(b)

    def test_hit_after_miss_and_metrics(self):
        topo, traffic = two_cluster_topology(), cross_traffic()
        TUNNEL_CACHE.clear()
        obs.metrics.reset()
        first = registry.solve("pf4", topo, traffic)
        after_first = TUNNEL_CACHE.stats()
        assert after_first["misses"] >= 1
        second = registry.solve("pf4", topo, traffic.scaled(2.0))
        after_second = TUNNEL_CACHE.stats()
        assert after_second["hits"] == after_first["hits"] + 1
        assert after_second["misses"] == after_first["misses"]
        assert obs.metrics.counter("tunnel_cache.hit").value >= 1
        assert second.objective >= first.objective - 1e-6

    def test_caller_copies_do_not_poison_cache(self):
        from repro.te import cached_k_shortest_tunnels

        topo, traffic = two_cluster_topology(), cross_traffic()
        TUNNEL_CACHE.clear()
        tunnels = cached_k_shortest_tunnels(topo, traffic, 2)
        tunnels.clear()
        again = cached_k_shortest_tunnels(topo, traffic, 2)
        assert again, "cache entry must survive mutation of the returned dict"
        assert TUNNEL_CACHE.stats()["hits"] == 1

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            TUNNEL_CACHE.lookup(two_cluster_topology(), cross_traffic(), 0)

    def test_lru_eviction_bounds_entries(self):
        from repro.te import TunnelCache

        cache = TunnelCache(max_entries=2)
        topo = two_cluster_topology()
        traffic = cross_traffic()
        for k in (1, 2, 3):
            cache.lookup(topo, traffic, k)
        assert cache.size == 2
        # k=1 was evicted; looking it up again is a miss.
        cache.lookup(topo, traffic, 1)
        assert cache.stats()["misses"] == 4


class TestTeCLI:
    def run_cli(self, argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_solver_list(self):
        code, text = self.run_cli(["te", "--solver", "list"])
        assert code == 0
        for name in ALL_SOLVERS:
            assert name in text
        assert "failure-aware" in text

    def test_unknown_solver_clean_error_with_suggestion(self):
        code, text = self.run_cli(["te", "B4", "--solver", "ncflw"])
        assert code == 2
        assert "unknown TE solver" in text
        assert "ncflow" in text

    def test_solve_with_injected_backend(self):
        code, text = self.run_cli([
            "te", "B4", "--solver", "pf4", "--commodities", "20",
            "--lp-backend", "slow",
        ])
        assert code == 0
        assert "pf4:" in text

    def test_mlu_output_format(self):
        code, text = self.run_cli([
            "te", "B4", "--solver", "mlu", "--commodities", "20",
        ])
        assert code == 0
        assert "MLU" in text

    def test_parallel_sweep_reports_cache_hits(self):
        code, text = self.run_cli([
            "te", "B4", "--solver", "pf4", "--commodities", "20",
            "--sweep", "0.5,1.0,2.0", "--workers", "2", "--metrics",
        ])
        assert code == 0
        assert "scale 0.5" in text and "scale 2" in text
        assert "tunnel_cache.hit" in text
        for line in text.splitlines():
            if line.startswith("tunnel_cache.hit"):
                assert int(line.split()[-1]) >= 2
                break
        else:  # pragma: no cover - assertion above guards this
            pytest.fail("tunnel_cache.hit metric missing")
