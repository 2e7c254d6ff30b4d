"""Incremental LP solve sessions: warm starts from the previous support.

``scale_sweep``, ``max_feasible_scale``, and NCFlow's residual passes
re-solve near-identical LPs: same tunnel structure, same constraint
rows, only demands and capacities move.  The one-shot
``LPBackend.solve`` path re-solves each of those cold.  This module
adds the session tier that exploits the similarity:

* :class:`SolveSession` -- the base session every backend can hand out
  (``backend.session()``); it just solves cold, so callers can thread a
  session unconditionally.
* :class:`WarmStartSession` -- warm-starts each solve from the previous
  solution's *support*: columns the last optimum left at their lower
  bound are dropped, the reduced LP (all rows kept) is solved, and a
  dual-pricing loop re-admits any dropped column with a negative
  reduced cost until the reduced optimum is provably optimal for the
  full model.  ``scipy``'s HiGHS wrapper has no basis/``x0`` warm
  start, so this support-reduction scheme is how a "warm" solve gets
  cheaper here -- and because pricing runs to exactness, the result is
  the true optimum, not an approximation.

Correctness rules baked into the pricing loop:

* all constraint rows are always kept, so a reduced solution extended
  with zeros is feasible for the full model;
* a reduced-model INFEASIBLE / ERROR / ITERATION_LIMIT is **not** a
  property of the full model (dropping columns can starve an equality
  row) -- those fall back to a full cold solve, never masking or
  inventing infeasibility;
* a reduced-model UNBOUNDED ray extends with zeros to a full-model
  ray, so UNBOUNDED is reported honestly.

Metrics: reduced solves count under ``lp.reduced_solves`` /
``lp.warm_starts`` / ``lp.reduced_vars`` (labelled ``backend=``) and
deliberately do **not** touch ``lp.solves``, which keeps counting full
cold solves only -- that is what makes "the warm sweep does strictly
fewer ``lp.solves``" a meaningful CI assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.lp.backends import LPBackend, _STATUS_MAP
from repro.lp.model import Model, SolveResult, SolveStatus

#: Buckets for the ``lp.reduced_vars`` histogram (kept-column counts).
_REDUCED_VAR_BUCKETS = (8, 32, 128, 512, 2048, 8192)

#: A previous-solution value above this is support, not numerical dust.
KEEP_THRESHOLD = 1e-9

#: A reduction keeping at least this share of the columns solves cold.
MAX_KEEP_FRACTION = 0.95

#: Pricing rounds before a warm solve gives up and falls back to cold.
MAX_PRICING_ROUNDS = 8

#: A dropped column re-enters when its reduced cost is below minus this.
PRICING_TOLERANCE = 1e-7


@dataclass
class SessionStats:
    """Counters a session keeps about its own solve history."""

    cold_solves: int = 0
    warm_solves: int = 0
    fallbacks: int = 0
    pricing_rounds: int = 0
    last_reduced_vars: int = 0


class SolveSession:
    """A sequence of related solves against one backend.

    The base session carries no warm-start state: every
    :meth:`solve` is a plain cold ``backend.solve``.  It exists so
    call sites can thread a session unconditionally --
    ``backend.session()`` returns a :class:`WarmStartSession` only when
    the backend advertises ``supports_warm_start``.
    """

    def __init__(self, backend: LPBackend):
        self.backend = backend
        self.last: Optional[SolveResult] = None
        self.stats = SessionStats()

    def solve(
        self, model: Model, warm_start: Optional[SolveResult] = None
    ) -> SolveResult:
        """Solve ``model``; ``warm_start`` is accepted and ignored."""
        result = self.backend.solve(model)
        self.stats.cold_solves += 1
        if result.status is SolveStatus.OPTIMAL:
            self.last = result
        return result


class WarmStartSession(SolveSession):
    """Support-reduction warm starts with an exact dual-pricing loop.

    Each solve after the first drops the columns the previous optimum
    left at a zero lower bound (:data:`KEEP_THRESHOLD` separates
    support from numerical dust), solves the reduced LP over all
    original rows, then re-admits every dropped column whose reduced
    cost ``c_j - A_ub^T λ_ub - A_eq^T λ_eq`` is below
    ``-PRICING_TOLERANCE`` and re-solves, until no column prices out --
    at which point the zero-extended reduced optimum is optimal for the
    full model.

    ``warm_start`` overrides the remembered previous result.  Any
    reduced status other than OPTIMAL/UNBOUNDED, more than
    :data:`MAX_PRICING_ROUNDS` rounds, or a degenerate reduction falls
    back to a full cold solve.

    The session also *accumulates* support down a chain: every column
    pricing ever re-admitted stays in the kept set for later solves.
    Nearby instances keep dragging the same columns back in, so the
    union makes later solves price out in one round instead of
    re-running the same admission rounds per solve; the
    :data:`MAX_KEEP_FRACTION` guard still demotes a chain whose union
    creeps toward the full model to plain cold solves.
    """

    def __init__(self, backend: LPBackend):
        super().__init__(backend)
        # Union of every column pricing re-admitted this chain; reset
        # whenever the session solves cold (a new chain starts small).
        self._accumulated = None

    def solve(
        self, model: Model, warm_start: Optional[SolveResult] = None
    ) -> SolveResult:
        """Warm solve from the previous support; cold when impossible."""
        import numpy as np

        previous = warm_start if warm_start is not None else self.last
        if (
            previous is None
            or previous.status is not SolveStatus.OPTIMAL
            or len(previous.values) != model.num_vars
            or model.num_vars == 0
        ):
            return self._cold(model)

        assembled = model.to_matrices()
        n = assembled.cost.shape[0]
        lowers = np.array([bound[0] for bound in assembled.bounds])
        keep = (np.asarray(previous.values) > KEEP_THRESHOLD) | (
            lowers != 0.0
        )
        if self._accumulated is not None and len(self._accumulated) == n:
            keep |= self._accumulated
        kept = int(keep.sum())
        if kept == 0 or kept >= MAX_KEEP_FRACTION * n:
            return self._cold(model)

        backend_name = self.backend.name
        obs.metrics.counter("lp.warm_starts", backend=backend_name).inc()
        self.stats.warm_solves += 1
        result = _pricing_solve(
            model, assembled, keep, backend_name=backend_name, stats=self.stats
        )
        if result is None:
            obs.metrics.counter("lp.warm_fallbacks", backend=backend_name).inc()
            self.stats.fallbacks += 1
            return self._cold(model)
        # _pricing_solve mutated ``keep`` as columns were re-admitted;
        # remember the union so the next solve starts from it.
        self._accumulated = keep
        if result.status is SolveStatus.OPTIMAL:
            self.last = result
        return result

    def _cold(self, model: Model) -> SolveResult:
        """Full solve through the backend; refreshes the session state."""
        result = self.backend.solve(model)
        self.stats.cold_solves += 1
        self._accumulated = None
        if result.status is SolveStatus.OPTIMAL:
            self.last = result
        return result


def _pricing_solve(
    model: Model,
    assembled,
    keep_mask,
    backend_name: str,
    stats: SessionStats,
) -> Optional[SolveResult]:
    """Solve the kept columns, price the dropped ones, repeat.

    Returns an OPTIMAL or UNBOUNDED :class:`SolveResult` for the *full*
    model, or ``None`` when the caller must fall back to a full cold
    solve (reduced infeasibility / numerical trouble / missing duals /
    round budget exhausted).  ``keep_mask`` is mutated as columns are
    re-admitted.
    """
    import numpy as np
    from scipy.optimize import linprog

    from repro.resilience import faults

    injector = faults.active()
    if injector is not None:
        try:
            injector.maybe_fail(
                "lp.session.warm", prefix=f"{backend_name}|{model.name}"
            )
        except faults.FaultError:
            # A fault in the reduced-solve path must degrade, never
            # lie: returning None routes every caller to its full
            # cold-solve fallback, so results stay exact under chaos.
            obs.metrics.counter(
                "lp.session.faults", backend=backend_name
            ).inc()
            return None
        injector.maybe_fail("lp.solve", prefix=f"{backend_name}|{model.name}")

    n = assembled.cost.shape[0]
    a_ub = assembled.a_ub.tocsc() if assembled.a_ub is not None else None
    a_eq = assembled.a_eq.tocsc() if assembled.a_eq is not None else None
    iterations = 0
    outcome: Optional[SolveResult] = None
    with obs.span(
        "lp.session.solve",
        model=model.name,
        backend=backend_name,
        vars=n,
        kept=int(keep_mask.sum()),
    ) as sp:
        for round_index in range(MAX_PRICING_ROUNDS):
            idx = np.flatnonzero(keep_mask)
            stats.pricing_rounds += 1
            stats.last_reduced_vars = len(idx)
            obs.metrics.counter("lp.reduced_solves", backend=backend_name).inc()
            obs.metrics.histogram(
                "lp.reduced_vars", buckets=_REDUCED_VAR_BUCKETS,
                backend=backend_name,
            ).observe(len(idx))
            raw = linprog(
                c=assembled.cost[idx],
                A_ub=a_ub[:, idx] if a_ub is not None else None,
                b_ub=assembled.b_ub,
                A_eq=a_eq[:, idx] if a_eq is not None else None,
                b_eq=assembled.b_eq,
                bounds=[assembled.bounds[j] for j in idx],
                method="highs",
            )
            iterations += int(getattr(raw, "nit", 0) or 0)
            status = _STATUS_MAP.get(raw.status, SolveStatus.ERROR)
            if status is SolveStatus.UNBOUNDED:
                # A reduced ray zero-extends to a full-model ray:
                # UNBOUNDED is honest, report it.
                outcome = SolveResult(
                    status=SolveStatus.UNBOUNDED,
                    objective=float("nan"),
                    values=[0.0] * n,
                    iterations=iterations,
                    backend_name=backend_name,
                )
                break
            if status is not SolveStatus.OPTIMAL:
                # Column dropping can starve a row: a reduced
                # INFEASIBLE/ERROR says nothing about the full model.
                break
            duals_ok, reduced_costs = _reduced_costs(assembled, a_ub, a_eq, raw)
            if not duals_ok:
                break
            violating = (~keep_mask) & (reduced_costs < -PRICING_TOLERANCE)
            if not violating.any():
                values = np.zeros(n)
                values[idx] = raw.x
                objective = float(raw.fun)
                full_objective = -objective if assembled.maximize else objective
                full_objective += assembled.objective_constant
                outcome = SolveResult(
                    status=SolveStatus.OPTIMAL,
                    objective=full_objective,
                    values=[float(v) for v in values],
                    iterations=iterations,
                    backend_name=backend_name,
                )
                sp.set(rounds=round_index + 1)
                break
            keep_mask |= violating
    if outcome is not None:
        outcome.solve_seconds = sp.duration
    return outcome


def _reduced_costs(assembled, a_ub, a_eq, raw):
    """``(duals available, c - A_ub^T λ_ub - A_eq^T λ_eq)`` for a solve."""
    import numpy as np

    reduced = assembled.cost.astype(float).copy()
    for matrix, duals in ((a_ub, getattr(raw, "ineqlin", None)),
                          (a_eq, getattr(raw, "eqlin", None))):
        if matrix is None:
            continue
        marginals = getattr(duals, "marginals", None)
        if marginals is None:
            return False, reduced
        reduced -= matrix.T @ np.asarray(marginals)
    return True, reduced
