"""Unified TE solver layer: one protocol, one registry, injected backends.

The TE substrate grew as a mix of free functions (``solve_max_flow``,
``solve_min_mlu``, ``solve_fleischer``) and classes (``NCFlowSolver``,
``ArrowSolver``), each wiring its own LP backend.  This module puts all
of them behind a single surface:

* :class:`TESolver` -- the protocol every solver satisfies: ``name``,
  ``capabilities``, ``solve(topology, traffic) -> TESolution``;
* :class:`SolverSpec` -- a named factory plus
  :class:`SolverCapabilities`, stored in a process-wide registry;
* :func:`make_solver` / :func:`solve` -- resolve a solver by name with
  an explicitly injected :class:`~repro.lp.LPBackend` (``None`` keeps
  each solver's default, a string goes through
  :func:`repro.lp.get_backend`).

Every solver resolved through the registry is instrumented uniformly: a
``te.registry.solve`` span plus a ``solver.solve_calls`` counter and a
``solver.solve_seconds`` histogram, both labeled ``solver=<name>`` (the
unlabeled family series carries the cross-solver totals).  Unknown
names raise :class:`UnknownSolverError` carrying close-match
suggestions.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Union, runtime_checkable

from repro import obs
from repro.lp import LPBackend, get_backend
from repro.netmodel.topology import Topology
from repro.netmodel.traffic import TrafficMatrix
from repro.te.solution import TESolution

SolveFn = Callable[[Topology, TrafficMatrix], TESolution]
BackendLike = Union[LPBackend, str, None]

#: Relative objective bound warm chains of non-``warm_start_exact``
#: solvers are held to (vs a per-scale cold solve).  The recorded
#: ncflow divergences are ~0.4% (a warm session steering the partition
#: search onto a neighbouring decomposition); 5% leaves headroom while
#: still catching a genuinely broken warm path.
WARM_APPROX_RELATIVE_BOUND = 0.05


@dataclass(frozen=True)
class SolverCapabilities:
    """What a registered solver can do, for listings and dispatch.

    ``objective`` is ``"max-flow"`` (objective = admitted Mbps) or
    ``"min-mlu"`` (objective = max link utilisation).  ``exact`` marks
    solvers that find the true optimum of the unrestricted edge
    formulation.  ``uses_tunnels`` marks solvers whose model building
    goes through the shared tunnel cache.  ``supports_warm_start``
    marks solvers whose factory accepts ``warm=True`` / ``session=`` to
    thread an LP :class:`~repro.lp.SolveSession` across repeated solves
    (sweeps and bisections exploit this).  ``approximate`` marks
    solvers whose objective may fall short of the LP optimum by design
    (FPTAS rounds, ncflow's cluster decomposition).

    ``warm_start_exact`` qualifies ``supports_warm_start``: when True,
    a warm session chain is an optimisation only and must reproduce
    per-scale cold objectives exactly (the LP pricing loop runs to
    optimality).  Solvers whose warm session threads through a
    heuristic decomposition -- ncflow's partition search + residual
    passes -- can land on a different (still feasible) decomposition
    than a cold solve, so they set this False and are held to
    :data:`WARM_APPROX_RELATIVE_BOUND` instead of exact equality.
    """

    objective: str = "max-flow"
    uses_lp: bool = True
    uses_tunnels: bool = True
    exact: bool = False
    failure_aware: bool = False
    supports_warm_start: bool = False
    approximate: bool = False
    warm_start_exact: bool = True

    def summary(self) -> str:
        tags = [self.objective]
        tags.append("lp" if self.uses_lp else "no-lp")
        if self.uses_tunnels:
            tags.append("tunnels")
        if self.exact:
            tags.append("exact")
        if self.failure_aware:
            tags.append("failure-aware")
        if self.supports_warm_start:
            tags.append("warm" if self.warm_start_exact else "warm-approx")
        if self.approximate:
            tags.append("approx")
        return ",".join(tags)


@runtime_checkable
class TESolver(Protocol):
    """The one interface call sites program against."""

    name: str
    capabilities: SolverCapabilities

    def solve(self, topology: Topology, traffic: TrafficMatrix) -> TESolution:
        ...


class UnknownSolverError(KeyError):
    """Raised when a solver name is not in the registry."""

    def __init__(self, name: str, known: List[str]):
        self.solver_name = name
        self.known = known
        self.suggestions = difflib.get_close_matches(name, known, n=3, cutoff=0.4)
        message = f"unknown TE solver {name!r}"
        if self.suggestions:
            message += "; did you mean: " + ", ".join(self.suggestions) + "?"
        message += f" (registered: {', '.join(known)})"
        super().__init__(message)

    def __str__(self) -> str:
        return self.args[0]


class _RegisteredSolver:
    """Uniform adapter the registry hands out: instruments every solve."""

    __slots__ = ("name", "capabilities", "_solve_fn")

    def __init__(self, name: str, capabilities: SolverCapabilities, solve_fn: SolveFn):
        self.name = name
        self.capabilities = capabilities
        self._solve_fn = solve_fn

    def solve(self, topology: Topology, traffic: TrafficMatrix) -> TESolution:
        obs.metrics.counter("solver.solve_calls", solver=self.name).inc()
        with obs.span(
            "te.registry.solve", solver=self.name, topology=topology.name
        ) as sp:
            solution = self._solve_fn(topology, traffic)
            sp.set(objective=solution.objective, status=solution.status)
        obs.metrics.histogram(
            "solver.solve_seconds", solver=self.name
        ).observe(sp.duration)
        return solution

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TESolver({self.name!r}, {self.capabilities.summary()})"


@dataclass(frozen=True)
class SolverSpec:
    """A registered solver: name, factory, capabilities, description.

    ``factory(backend=None, **options)`` returns a bare
    ``solve(topology, traffic)`` callable; :meth:`create` wraps it in the
    instrumented adapter.  ``backend`` is always threaded through
    explicitly -- no registered solver constructs its own LP backend.
    """

    name: str
    factory: Callable[..., SolveFn]
    capabilities: SolverCapabilities
    description: str = ""

    def create(self, backend: BackendLike = None, **options) -> TESolver:
        if isinstance(backend, str):
            backend = get_backend(backend)
        return _RegisteredSolver(
            self.name, self.capabilities, self.factory(backend=backend, **options)
        )


_REGISTRY: Dict[str, SolverSpec] = {}


def register(spec: SolverSpec, replace: bool = False) -> SolverSpec:
    """Add ``spec`` to the registry; re-registration requires ``replace``."""
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"solver {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> SolverSpec:
    """Remove and return a registered spec (tests registering probe
    solvers clean up with ``try/finally: unregister(...)``)."""
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise UnknownSolverError(name, solver_names()) from None


def solver_names() -> List[str]:
    """All registered solver names, sorted."""
    return sorted(_REGISTRY)


def get_spec(name: str) -> SolverSpec:
    """The :class:`SolverSpec` for ``name``; raises :class:`UnknownSolverError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSolverError(name, solver_names()) from None


def make_solver(name: str, backend: BackendLike = None, **options) -> TESolver:
    """Resolve ``name`` to an instrumented :class:`TESolver` instance."""
    return get_spec(name).create(backend=backend, **options)


def solve(
    name: str,
    topology: Topology,
    traffic: TrafficMatrix,
    backend: BackendLike = None,
    **options,
) -> TESolution:
    """One-shot convenience: ``make_solver(name, ...).solve(...)``."""
    return make_solver(name, backend=backend, **options).solve(topology, traffic)


def render_table() -> str:
    """Plain-text listing of every registered solver (``--solver list``)."""
    lines = [f"{'solver':<14} {'capabilities':<38} description"]
    for name in solver_names():
        spec = _REGISTRY[name]
        lines.append(
            f"{name:<14} {spec.capabilities.summary():<38} {spec.description}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Built-in solvers
# ----------------------------------------------------------------------
def _warm_session(backend: Optional[LPBackend], warm: bool, session):
    """Resolve the session a warm-capable factory threads through.

    An explicit ``session`` wins; otherwise ``warm=True`` opens a fresh
    session on ``backend`` (default the fast personality).  The session
    is created once per factory call, so every solve of the returned
    solver shares it -- that is what makes a sweep warm.
    """
    if session is not None:
        return session
    if not warm:
        return None
    from repro.lp import FastLPBackend

    resolved = backend if backend is not None else FastLPBackend()
    return resolved.session()


def _pf_factory(
    backend: Optional[LPBackend] = None,
    num_paths: int = 4,
    warm: bool = False,
    session=None,
) -> SolveFn:
    from repro.te.maxflow import solve_max_flow

    lp_session = _warm_session(backend, warm, session)

    def run(topology: Topology, traffic: TrafficMatrix) -> TESolution:
        return solve_max_flow(
            topology, traffic, num_paths=num_paths, backend=backend,
            session=lp_session,
        )

    return run


def _edge_factory(
    backend: Optional[LPBackend] = None,
    warm: bool = False,
    session=None,
) -> SolveFn:
    from repro.te.maxflow import solve_max_flow_edge

    lp_session = _warm_session(backend, warm, session)

    def run(topology: Topology, traffic: TrafficMatrix) -> TESolution:
        return solve_max_flow_edge(
            topology, traffic, backend=backend, session=lp_session
        )

    return run


def _mlu_factory(
    backend: Optional[LPBackend] = None,
    num_paths: int = 4,
    warm: bool = False,
    session=None,
) -> SolveFn:
    from repro.te.mlu import solve_min_mlu

    lp_session = _warm_session(backend, warm, session)

    def run(topology: Topology, traffic: TrafficMatrix) -> TESolution:
        return solve_min_mlu(
            topology, traffic, num_paths=num_paths, backend=backend,
            session=lp_session,
        )

    return run


def _fleischer_factory(
    backend: Optional[LPBackend] = None,
    epsilon: float = 0.1,
    max_rounds: Optional[int] = None,
) -> SolveFn:
    # Combinatorial FPTAS: no LP, so an injected backend is ignored
    # (capabilities advertise uses_lp=False).
    from repro.te.fleischer import solve_fleischer

    def run(topology: Topology, traffic: TrafficMatrix) -> TESolution:
        return solve_fleischer(topology, traffic, epsilon=epsilon, max_rounds=max_rounds)

    return run


def _ncflow_factory(
    backend: Optional[LPBackend] = None, warm: bool = False, **options
) -> SolveFn:
    from repro.te.ncflow import NCFlowSolver

    return NCFlowSolver(backend=backend, warm_start=warm, **options).solve


def _arrow_factory(variant: str):
    def factory(
        backend: Optional[LPBackend] = None, scenarios=None, **options
    ) -> SolveFn:
        from repro.te.arrow import ArrowSolver

        solver = ArrowSolver(variant=variant, backend=backend, **options)

        def run(topology: Topology, traffic: TrafficMatrix) -> TESolution:
            return solver.solve(topology, traffic, scenarios)

        return run

    return factory


register(SolverSpec(
    "pf4", _pf_factory,
    SolverCapabilities(objective="max-flow", supports_warm_start=True),
    "PF-k path-formulation max-flow LP (k=4, the NCFlow baseline)",
))
register(SolverSpec(
    "edge", _edge_factory,
    SolverCapabilities(
        objective="max-flow", uses_tunnels=False, exact=True,
        supports_warm_start=True,
    ),
    "edge-formulation max flow: the exact optimum / feasibility oracle",
))
register(SolverSpec(
    "mlu", _mlu_factory,
    SolverCapabilities(objective="min-mlu", supports_warm_start=True),
    "route all demand, minimise max link utilisation",
))
register(SolverSpec(
    "fleischer", _fleischer_factory,
    SolverCapabilities(
        objective="max-flow", uses_lp=False, uses_tunnels=False,
        approximate=True,
    ),
    "Fleischer's (1-eps)-approximate max multicommodity flow (no LP)",
))
register(SolverSpec(
    "ncflow", _ncflow_factory,
    SolverCapabilities(
        objective="max-flow", supports_warm_start=True, approximate=True,
        warm_start_exact=False,
    ),
    "contract-and-decompose solver with partition search + residual passes",
))
for _variant, _blurb in (
    ("paper", "designated restorable links, fixed restored capacity"),
    ("code", "restoration as budgeted decision variables (open-source variant)"),
    ("none", "no restoration: tunnels crossing a cut fiber are dead"),
    ("ticket", "LP-relaxed lottery-ticket restoration candidates"),
):
    register(SolverSpec(
        f"arrow-{_variant}", _arrow_factory(_variant),
        SolverCapabilities(objective="max-flow", failure_aware=True),
        f"restoration-aware TE under fiber cuts; {_blurb}",
    ))
