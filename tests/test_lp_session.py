"""Tests for the incremental LP solve-session tier.

Covers the warm-start correctness contract (a warm session solve is
*exactly* as optimal as a cold one, to LP tolerance), the never-mask
rules for INFEASIBLE/UNBOUNDED on the warm path, and the warm sweep
plumbing (fewer full solves, deterministic parallel chunking, fail-soft
collection).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.lp import (
    FastLPBackend,
    LinExpr,
    Model,
    SolveSession,
    WarmStartSession,
    get_backend,
)
from repro.lp.model import SolveStatus
from repro.netmodel.topology import Topology
from repro.netmodel.traffic import TrafficMatrix
from repro.parallel import TaskFailure
from repro.resilience import FaultPlan, chaos
from repro.te import registry
from repro.te.demandscale import _chunk_indices, max_feasible_scale, scale_sweep

FUZZ_SETTINGS = dict(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def knapsack_model(name="knap", rhs=12.0, num_vars=40):
    """A small packing LP with a known-nontrivial support."""
    model = Model(name)
    variables = model.add_vars(num_vars, upper=5.0)
    for start in range(0, num_vars, 4):
        model.add_constraint(
            LinExpr.sum_of(variables[start:start + 4]) <= rhs
        )
    model.maximize(LinExpr.sum_of(
        (1.0 + 0.01 * i) * v for i, v in enumerate(variables)
    ))
    return model


def support_model(
    name="support", last_upper=1.0, last_gain=-1.0, head_upper=1.0
):
    """40 columns whose optimum uses only ``x0..x3``.

    The first four columns (upper bound 1) earn 1 each and the rest
    cost 1 each, so the optimum is 4.0 with 36 columns at zero: a warm
    solve from it keeps 4 of 40 columns and has to price the rest.
    ``last_upper``/``last_gain`` reshape the dropped column ``x39``;
    ``head_upper`` reshapes the kept column ``x0``.
    Returns ``(model, variables)`` so tests can add rows.
    """
    model = Model(name)
    variables = [model.add_var(name="x0", upper=head_upper)]
    variables += [model.add_var(name=f"x{i}", upper=1.0) for i in range(1, 39)]
    variables.append(model.add_var(name="x39", upper=last_upper))
    model.maximize(
        LinExpr.sum_of(variables[:4])
        - LinExpr.sum_of(variables[4:39])
        + last_gain * variables[39]
    )
    return model, variables


def warm_from_support():
    """A warm session whose remembered optimum is :func:`support_model`'s."""
    session = WarmStartSession(FastLPBackend())
    seed = session.solve(support_model()[0])
    assert seed.objective == pytest.approx(4.0)
    return session


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


class TestBaseSession:
    def test_base_session_solves_cold(self):
        session = FastLPBackend().session()
        # FastLPBackend advertises warm starts, so .session() is warm.
        assert isinstance(session, WarmStartSession)

    def test_plain_session_counts_cold_solves(self):
        session = SolveSession(FastLPBackend())
        first = session.solve(knapsack_model())
        second = session.solve(knapsack_model(rhs=10.0))
        assert first.status is SolveStatus.OPTIMAL
        assert second.status is SolveStatus.OPTIMAL
        assert session.stats.cold_solves == 2
        assert session.stats.warm_solves == 0
        assert session.last is second

    def test_every_backend_hands_out_a_session(self):
        for name in ("fast", "slow", "fallback"):
            session = get_backend(name).session()
            result = session.solve(knapsack_model())
            assert result.status is SolveStatus.OPTIMAL


class TestWarmStartSession:
    def test_warm_chain_matches_cold(self):
        cold = FastLPBackend()
        session = WarmStartSession(FastLPBackend())
        for rhs in (12.0, 11.0, 10.0, 9.5, 13.0):
            model = knapsack_model(rhs=rhs)
            warm = session.solve(model)
            reference = cold.solve(knapsack_model(rhs=rhs))
            assert warm.status is SolveStatus.OPTIMAL
            assert warm.objective == pytest.approx(
                reference.objective, rel=1e-7, abs=1e-7
            )
        assert session.stats.cold_solves == 1
        assert session.stats.warm_solves == 4
        assert session.stats.fallbacks == 0

    def test_explicit_warm_start_argument_wins(self):
        session = WarmStartSession(FastLPBackend())
        seed = FastLPBackend().solve(knapsack_model())
        result = session.solve(knapsack_model(rhs=11.0), warm_start=seed)
        assert result.status is SolveStatus.OPTIMAL
        assert session.stats.warm_solves == 1

    def test_shape_change_falls_back_to_cold(self):
        session = WarmStartSession(FastLPBackend())
        session.solve(knapsack_model(num_vars=40))
        session.solve(knapsack_model(num_vars=44))
        assert session.stats.cold_solves == 2
        assert session.stats.warm_solves == 0

    def test_warm_infeasible_is_reported_not_masked(self):
        # x0 is in the kept support, so the reduced LP is infeasible
        # too; that proves nothing about the full model, so the session
        # falls back and the cold solve reports the real INFEASIBLE.
        session = warm_from_support()
        model, variables = support_model("infeasible")
        model.add_constraint(variables[0] >= 2.0)
        result = session.solve(model)
        assert session.stats.warm_solves == 1
        assert session.stats.fallbacks == 1
        assert result.status is SolveStatus.INFEASIBLE

    def test_warm_starved_row_falls_back_to_cold_optimum(self):
        # The row only touches the dropped x39, so the reduced LP is
        # infeasible while the full model is not: the session must not
        # report INFEASIBLE, it must fall back to the cold optimum.
        session = warm_from_support()
        model, variables = support_model("starved")
        model.add_constraint(variables[39] >= 1.0)
        result = session.solve(model)
        assert session.stats.warm_solves == 1
        assert session.stats.fallbacks == 1
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(3.0)

    def test_warm_unbounded_is_reported(self):
        # Pricing re-admits the dropped, now unbounded x39; the reduced
        # ray zero-extends to the full model, so UNBOUNDED is honest.
        session = warm_from_support()
        model, _ = support_model(
            "unbounded", last_upper=float("inf"), last_gain=1.0
        )
        result = session.solve(model)
        assert session.stats.warm_solves == 1
        assert session.stats.fallbacks == 0
        assert session.stats.pricing_rounds == 2
        assert result.status is SolveStatus.UNBOUNDED

    def test_warm_unbounded_kept_column_is_reported(self):
        # The unbounded x0 is in the kept support, so the first reduced
        # solve already finds the ray: UNBOUNDED without any pricing.
        session = warm_from_support()
        model, _ = support_model("unbounded-kept", head_upper=float("inf"))
        result = session.solve(model)
        assert session.stats.warm_solves == 1
        assert session.stats.fallbacks == 0
        assert session.stats.pricing_rounds == 1
        assert result.status is SolveStatus.UNBOUNDED

    def test_warm_metrics_never_touch_lp_solves(self):
        obs.metrics.reset()
        session = WarmStartSession(FastLPBackend())
        session.solve(knapsack_model())
        for rhs in (11.0, 10.0):
            session.solve(knapsack_model(rhs=rhs))
        snapshot = obs.metrics.snapshot()
        assert snapshot["lp.solves"]["value"] == 1
        assert snapshot["lp.warm_starts"]["value"] == 2
        assert snapshot["lp.reduced_solves"]["value"] >= 2

    def test_accumulated_support_resets_on_cold(self):
        session = WarmStartSession(FastLPBackend())
        session.solve(knapsack_model())
        session.solve(knapsack_model(rhs=11.0))
        assert session._accumulated is not None
        session.solve(knapsack_model(num_vars=48))  # shape change -> cold
        assert session._accumulated is None

    def test_warm_fault_falls_back_to_cold_never_masks(self):
        # Full-rate chaos at the reduced-solve site: every warm attempt
        # fails, every solve degrades to cold, results stay exact.
        cold = FastLPBackend()
        session = WarmStartSession(FastLPBackend())
        plan = FaultPlan(seed=1, rate=1.0, sites=("lp.session.warm",))
        with chaos(plan):
            for rhs in (12.0, 11.0, 10.0):
                warm = session.solve(knapsack_model(rhs=rhs))
                reference = cold.solve(knapsack_model(rhs=rhs))
                assert warm.status is SolveStatus.OPTIMAL
                assert warm.objective == pytest.approx(
                    reference.objective, rel=1e-7, abs=1e-7
                )
        # warm_solves counts *attempts*: under full-rate chaos every
        # attempt fell back, so attempts == fallbacks and every solve
        # also ran cold.
        assert session.stats.fallbacks == 2  # every non-first solve
        assert session.stats.warm_solves == session.stats.fallbacks
        assert session.stats.cold_solves == 3

    def test_warm_fault_site_counts_session_faults(self):
        obs.metrics.reset()
        session = WarmStartSession(FastLPBackend())
        plan = FaultPlan(seed=1, rate=1.0, sites=("lp.session.warm",))
        with chaos(plan):
            session.solve(knapsack_model())
            session.solve(knapsack_model(rhs=11.0))
        snapshot = obs.metrics.snapshot()
        assert snapshot["lp.session.faults"]["value"] >= 1
        assert snapshot["lp.warm_fallbacks"]["value"] >= 1


class TestWarmSolversProperty:
    """Satellite: every warm-capable registry solver, fuzzed.

    A warm chain over scaled copies of a random instance must report the
    same status as the cold solver at every point.  Solvers whose
    capabilities declare ``warm_start_exact`` must also match the cold
    objective to LP tolerance; the rest (ncflow -- see
    :class:`TestNcflowWarmDivergence` for a pinned falsifying instance)
    get the documented relative bound
    :data:`repro.te.registry.WARM_APPROX_RELATIVE_BOUND` instead.
    """

    @settings(**FUZZ_SETTINGS)
    @given(random_instance())
    def test_warm_solve_matches_cold_for_every_warm_solver(self, instance):
        topo, traffic = instance
        warm_names = [
            name for name in registry.solver_names()
            if registry.get_spec(name).capabilities.supports_warm_start
        ]
        assert warm_names  # the registry must advertise warm solvers
        for name in warm_names:
            exact = registry.get_spec(name).capabilities.warm_start_exact
            warm_solver = registry.make_solver(name, warm=True)
            cold_solver = registry.make_solver(name)
            for scale in (0.5, 1.0, 1.7):
                scaled = traffic.scaled(scale)
                warm = warm_solver.solve(topo, scaled)
                cold = cold_solver.solve(topo, scaled)
                assert warm.status == cold.status, name
                if exact:
                    assert warm.objective == pytest.approx(
                        cold.objective, rel=1e-6, abs=1e-6
                    ), f"{name} diverged at scale {scale}"
                else:
                    denom = max(abs(cold.objective), 1e-9)
                    gap = abs(warm.objective - cold.objective) / denom
                    assert gap <= registry.WARM_APPROX_RELATIVE_BOUND, (
                        f"{name} warm gap {gap:.4%} exceeds approx bound "
                        f"at scale {scale}"
                    )


class TestNcflowWarmDivergence:
    """Regression: ncflow warm starts are *not* exact (ROADMAP item).

    ncflow decomposes per-cluster and reuses the previous partition's
    flow split as the warm seed; after a demand rescale the reused split
    can lock in a slightly suboptimal inter-cluster allocation, so the
    warm chain may land strictly below the cold optimum.  This instance
    (found by a seeded random search, seed 116) pins one such
    divergence: warm 46.5 vs cold ~46.6667 at scale 1.7 -- a ~0.36%
    relative gap.  The contract is therefore approximation, not
    equality: status must match and the gap must stay within
    :data:`repro.te.registry.WARM_APPROX_RELATIVE_BOUND`, which is what
    ``warm_start_exact=False`` in the registry now encodes.
    """

    def _instance(self):
        topo = Topology("ncflow-warm-divergence")
        for i in range(6):
            topo.add_node(f"n{i}")
        links = [
            ("n0", "n1", 18), ("n1", "n2", 15), ("n2", "n3", 3),
            ("n3", "n4", 11), ("n4", "n5", 2), ("n5", "n0", 18),
            ("n3", "n0", 13), ("n5", "n3", 19),
        ]
        for src, dst, cap in links:
            topo.add_bidi_link(src, dst, float(cap))
        traffic = TrafficMatrix({
            ("n5", "n3"): 10.0, ("n5", "n2"): 14.0, ("n3", "n4"): 12.0,
        })
        return topo, traffic

    def test_registry_declares_ncflow_warm_approximate(self):
        capabilities = registry.get_spec("ncflow").capabilities
        assert capabilities.supports_warm_start
        assert not capabilities.warm_start_exact
        assert "warm-approx" in capabilities.summary()

    def test_pinned_instance_diverges_but_stays_within_bound(self):
        topo, traffic = self._instance()
        warm_solver = registry.make_solver("ncflow", warm=True)
        cold_solver = registry.make_solver("ncflow")
        max_gap = 0.0
        for scale in (0.5, 1.0, 1.7):
            scaled = traffic.scaled(scale)
            warm = warm_solver.solve(topo, scaled)
            cold = cold_solver.solve(topo, scaled)
            assert warm.status == cold.status
            denom = max(abs(cold.objective), 1e-9)
            gap = abs(warm.objective - cold.objective) / denom
            assert gap <= registry.WARM_APPROX_RELATIVE_BOUND
            max_gap = max(max_gap, gap)
        # The falsifying point: the warm chain genuinely diverges here,
        # which is why exact warm==cold had to be replaced by a bound.
        assert max_gap > 1e-6


class TestChunking:
    def test_chunks_cover_range_in_order(self):
        for count in (1, 5, 8, 13):
            for workers in (1, 2, 3, 8, 20):
                chunks = _chunk_indices(count, workers)
                flattened = [i for chunk in chunks for i in chunk]
                assert flattened == list(range(count))
                assert len(chunks) == min(max(1, workers), count)
                sizes = [len(chunk) for chunk in chunks]
                assert max(sizes) - min(sizes) <= 1


class TestWarmSweep:
    def setup_method(self):
        self.topo = Topology("sweep")
        for node in ("a", "b", "c", "d"):
            self.topo.add_node(node)
        self.topo.add_bidi_link("a", "b", 10.0)
        self.topo.add_bidi_link("b", "c", 8.0)
        self.topo.add_bidi_link("c", "d", 10.0)
        self.topo.add_bidi_link("a", "d", 5.0)
        self.traffic = TrafficMatrix({
            ("a", "c"): 6.0, ("b", "d"): 4.0, ("a", "d"): 3.0,
        })
        self.scales = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0]

    def test_warm_sweep_matches_cold_with_fewer_full_solves(self):
        obs.metrics.reset()
        cold = scale_sweep(
            self.topo, self.traffic, "pf4", scales=self.scales
        )
        cold_solves = obs.metrics.snapshot()["lp.solves"]["value"]
        obs.metrics.reset()
        warm = scale_sweep(
            self.topo, self.traffic, "pf4", scales=self.scales,
            warm_start=True,
        )
        snapshot = obs.metrics.snapshot()
        warm_solves = snapshot["lp.solves"]["value"]
        assert warm_solves < cold_solves
        assert snapshot["sweep.warm_chains"]["value"] == 1
        for c, w in zip(cold, warm):
            assert w.objective == pytest.approx(c.objective, abs=1e-6)
            assert w.scale == c.scale

    def test_warm_parallel_deterministic_and_ordered(self):
        runs = [
            scale_sweep(
                self.topo, self.traffic, "pf4", scales=self.scales,
                workers=3, warm_start=True,
            )
            for _ in range(2)
        ]
        assert [p.objective for p in runs[0]] == [
            p.objective for p in runs[1]
        ]
        assert [p.scale for p in runs[0]] == self.scales

    def test_warm_sweep_collects_failures_per_point(self):
        plan = FaultPlan.parse("rate=0.4,seed=11,sites=lp.solve")
        with chaos(plan):
            results = scale_sweep(
                self.topo, self.traffic, "pf4", scales=self.scales,
                warm_start=True, on_error="collect",
            )
        assert len(results) == len(self.scales)
        failures = [r for r in results if isinstance(r, TaskFailure)]
        assert failures  # rate=0.4 over 6+ solves must hit something
        for failure in failures:
            assert results[failure.index] is failure

    def test_non_warm_capable_solver_silently_cold(self):
        # fleischer has no warm support; warm_start=True must not break.
        results = scale_sweep(
            self.topo, self.traffic, "fleischer", scales=[0.5, 1.0],
            warm_start=True,
        )
        assert len(results) == 2

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError):
            scale_sweep(
                self.topo, self.traffic, "pf4", scales=[1.0],
                on_error="bogus",
            )

    def test_max_feasible_scale_warm_matches_cold(self):
        warm = max_feasible_scale(self.topo, self.traffic, oracle="edge")
        cold = max_feasible_scale(
            self.topo, self.traffic, oracle="edge", warm_start=False
        )
        assert warm == pytest.approx(cold, rel=1e-6)
