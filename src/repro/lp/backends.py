"""LP solver backends with the two "personalities" described in DESIGN.md.

Participant A's reproduced NCFlow was up to 111x slower end-to-end than the
open-source prototype purely because of the LP toolchain: the prototype calls
Gurobi in-process while the reproduction goes through PuLP, which serialises
the model to an ``.lp`` file, shells out to CBC, and parses the solution back.

* :class:`FastLPBackend` solves the assembled sparse matrices directly with
  HiGHS (interior point / dual simplex chosen by HiGHS), like Gurobi's
  in-process API.
* :class:`SlowLPBackend` reproduces the PuLP code path honestly: it writes
  the model to CPLEX LP text format, re-parses that text into a fresh model,
  and only then solves -- with the plain dual-simplex method.  All the extra
  latency is real serialisation work, not a sleep.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from repro import obs
from repro.lp.model import (
    ConstraintSense,
    LinExpr,
    Model,
    SolveResult,
    SolveStatus,
)

_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


class LPBackend:
    """Interface all LP backends implement."""

    name = "abstract"
    #: Whether :meth:`session` returns a genuinely warm-starting session
    #: (:class:`~repro.lp.session.WarmStartSession`) instead of the base
    #: cold-per-call session.
    supports_warm_start = False

    def solve(self, model: Model) -> SolveResult:
        """Solve ``model`` once, cold; subclasses implement this."""
        raise NotImplementedError

    def session(self):
        """A :class:`~repro.lp.session.SolveSession` over this backend.

        The base implementation hands out a cold session (every solve
        is a plain :meth:`solve`), so callers can thread sessions
        unconditionally; backends that can exploit a previous solution
        override this and advertise ``supports_warm_start``.
        """
        from repro.lp.session import SolveSession

        return SolveSession(self)

    def _run_linprog(
        self, model: Model, method: str, observe_seconds: bool = True
    ) -> SolveResult:
        from scipy.optimize import linprog

        from repro.resilience import faults

        injector = faults.active()
        if injector is not None:
            injector.maybe_fail("lp.solve", prefix=f"{self.name}|{model.name}")
        assembled = model.to_matrices()
        if assembled.cost.shape[0] == 0:
            return SolveResult(
                status=SolveStatus.OPTIMAL,
                objective=assembled.objective_constant,
                values=[],
                backend_name=self.name,
            )
        with obs.span(
            "lp.solve",
            model=model.name,
            backend=self.name,
            method=method,
            vars=assembled.cost.shape[0],
        ) as sp:
            raw = linprog(
                c=assembled.cost,
                A_ub=assembled.a_ub,
                b_ub=assembled.b_ub,
                A_eq=assembled.a_eq,
                b_eq=assembled.b_eq,
                bounds=assembled.bounds,
                method=method,
            )
        elapsed = sp.duration
        iterations = int(getattr(raw, "nit", 0) or 0)
        obs.metrics.counter("lp.solves", backend=self.name, method=method).inc()
        obs.metrics.histogram(
            "lp.iterations", buckets=(1, 10, 100, 1000, 10000),
            backend=self.name,
        ).observe(iterations)
        if observe_seconds:
            obs.metrics.histogram(
                "lp.solve_seconds", backend=self.name
            ).observe(elapsed)
        status = _STATUS_MAP.get(raw.status, SolveStatus.ERROR)
        if status is SolveStatus.OPTIMAL:
            objective = float(raw.fun)
            if assembled.maximize:
                objective = -objective
            objective += assembled.objective_constant
            values = [float(v) for v in raw.x]
        else:
            objective = float("nan")
            values = [0.0] * len(model.variables)
        return SolveResult(
            status=status,
            objective=objective,
            values=values,
            iterations=iterations,
            solve_seconds=elapsed,
            backend_name=self.name,
        )


class FastLPBackend(LPBackend):
    """In-process solve, standing in for Gurobi."""

    name = "fast-highs"
    supports_warm_start = True

    def solve(self, model: Model) -> SolveResult:
        """Solve the assembled matrices directly with HiGHS."""
        return self._run_linprog(model, method="highs")

    def session(self):
        """A warm session: support reduction + exact dual pricing."""
        from repro.lp.session import WarmStartSession

        return WarmStartSession(self)


class SlowLPBackend(LPBackend):
    """File-format round-trip solve, standing in for PuLP + CBC.

    The round-trip count can be raised to model slower toolchains; each
    round trip serialises the model to LP text and re-parses it, which is
    exactly the overhead PuLP pays once per solve (write ``.lp``, fork CBC,
    CBC re-reads the file).
    """

    name = "slow-pulp"

    def __init__(self, round_trips: int = 3):
        if round_trips < 1:
            raise ValueError("round_trips must be >= 1")
        self.round_trips = round_trips

    def solve(self, model: Model) -> SolveResult:
        """Round-trip through LP text, then solve with dual simplex.

        The ``lp.solve_seconds{backend="slow-pulp"}`` histogram observes
        the *round-trip* duration (serialise + parse + solve), matching
        ``result.solve_seconds`` -- the serialisation cost is the whole
        point of this personality, so hiding it from /metrics would
        undercount exactly the latency the paper attributes to PuLP.
        """
        with obs.span(
            "lp.roundtrip", model=model.name, trips=self.round_trips
        ) as sp:
            current = model
            for _ in range(self.round_trips):
                text = write_lp_text(current)
                current = parse_lp_text(text)
            result = self._run_linprog(
                current, method="highs-ds", observe_seconds=False
            )
        result.solve_seconds = sp.duration
        result.backend_name = self.name
        obs.metrics.histogram(
            "lp.solve_seconds", backend=self.name
        ).observe(sp.duration)
        return result


def get_backend(name: str) -> LPBackend:
    """Look up a backend by personality name.

    ``"fast"``/``"slow"`` are the two stock personalities;
    ``"fallback"`` is the resilience chain ``fast -> slow``
    (:class:`repro.resilience.FallbackLPBackend`).
    """
    normalised = name.lower()
    if normalised in ("fast", "gurobi", "fast-highs"):
        return FastLPBackend()
    if normalised in ("slow", "pulp", "cbc", "slow-pulp"):
        return SlowLPBackend()
    if normalised in ("fallback", "resilient"):
        from repro.resilience.fallback import FallbackLPBackend

        return FallbackLPBackend()
    raise KeyError(f"unknown LP backend {name!r}")


# ----------------------------------------------------------------------
# CPLEX LP text format (the subset PuLP emits)
# ----------------------------------------------------------------------

def _format_expr(
    expr: LinExpr, var_names: List[str], include_constant: bool = False
) -> str:
    parts: List[str] = []
    for idx in sorted(expr.coefs):
        coef = expr.coefs[idx]
        if coef == 0.0:
            continue
        sign = "+" if coef >= 0 else "-"
        parts.append(f"{sign} {abs(coef):.12g} {var_names[idx]}")
    if include_constant and expr.constant != 0.0:
        # Only the objective row keeps its constant in LP text;
        # constraint rows fold it into the right-hand side.
        sign = "+" if expr.constant >= 0 else "-"
        parts.append(f"{sign} {abs(expr.constant):.12g}")
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _sanitize_names(model: Model) -> List[str]:
    """LP-format-safe, unique variable names (like ``PuLP.writeLP``)."""
    names: List[str] = []
    seen = set()
    for var in model.variables:
        name = re.sub(r"[^A-Za-z0-9_]", "_", var.name)
        if not name or not (name[0].isalpha() or name[0] == "_"):
            name = f"x_{var.index}"
        if name in seen:
            name = f"{name}_{var.index}"
        seen.add(name)
        names.append(name)
    return names


def write_lp_text(model: Model) -> str:
    """Serialise ``model`` to CPLEX LP format, like ``PuLP.writeLP``."""
    names = _sanitize_names(model)
    lines = [f"\\* {model.name} *\\"]
    lines.append("Maximize" if model.is_maximize else "Minimize")
    lines.append(
        " obj: "
        + _format_expr(model.objective_expr, names, include_constant=True)
    )
    lines.append("Subject To")
    sense_token = {
        ConstraintSense.LE: "<=",
        ConstraintSense.GE: ">=",
        ConstraintSense.EQ: "=",
    }
    for constraint in model.constraints:
        rhs = -constraint.expr.constant
        row_name = re.sub(r"[^A-Za-z0-9_]", "_", constraint.name) or f"c{constraint.row}"
        lines.append(
            f" {row_name}: {_format_expr(constraint.expr, names)} "
            f"{sense_token[constraint.sense]} {rhs:.12g}"
        )
    lines.append("Bounds")
    for var, name in zip(model.variables, names):
        upper = "+inf" if var.upper == float("inf") else f"{var.upper:.12g}"
        lines.append(f" {var.lower:.12g} <= {name} <= {upper}")
    lines.append("End")
    return "\n".join(lines)


_TOKEN_RE = re.compile(
    r"(?P<sign>[+-])"
    r"|(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][\w.\[\],]*)"
)


def _parse_expr(text: str, var_index: Dict[str, int]) -> LinExpr:
    """Parse a sum of ``[+-] [coef] [var]`` terms, including bare
    constants (a number followed by no variable name, as the objective
    row emits for a constant offset)."""
    expr = LinExpr()
    sign = 1.0
    pending: Optional[float] = None
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "sign":
            if pending is not None:
                expr.constant += sign * pending
                pending = None
            sign = -1.0 if match.group() == "-" else 1.0
        elif kind == "number":
            if pending is not None:
                expr.constant += sign * pending
            pending = float(match.group())
        else:
            coef = sign * (pending if pending is not None else 1.0)
            idx = var_index[match.group()]
            expr.coefs[idx] = expr.coefs.get(idx, 0.0) + coef
            pending = None
            sign = 1.0
    if pending is not None:
        expr.constant += sign * pending
    return expr


def parse_lp_text(text: str) -> Model:
    """Parse LP text produced by :func:`write_lp_text` back into a model."""
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    model = Model("parsed")
    section = None
    maximize = False
    objective_text: Optional[str] = None
    constraint_rows: List[str] = []
    bound_rows: List[str] = []
    for line in lines:
        stripped = line.strip()
        lowered = stripped.lower()
        if stripped.startswith("\\*"):
            continue
        if lowered in ("maximize", "minimize"):
            maximize = lowered == "maximize"
            section = "objective"
            continue
        if lowered == "subject to":
            section = "constraints"
            continue
        if lowered == "bounds":
            section = "bounds"
            continue
        if lowered == "end":
            break
        if section == "objective":
            objective_text = stripped.split(":", 1)[1]
        elif section == "constraints":
            constraint_rows.append(stripped)
        elif section == "bounds":
            bound_rows.append(stripped)

    var_index: Dict[str, int] = {}
    for row in bound_rows:
        lower_text, name, upper_text = _split_bound(row)
        upper = float("inf") if upper_text in ("+inf", "inf") else float(upper_text)
        var = model.add_var(name=name, lower=float(lower_text), upper=upper)
        var_index[name] = var.index

    if objective_text is not None:
        objective = _parse_expr(objective_text, var_index)
        if maximize:
            model.maximize(objective)
        else:
            model.minimize(objective)

    for row in constraint_rows:
        name, body = row.split(":", 1)
        match = re.search(r"(<=|>=|=)\s*([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*$", body)
        if match is None:
            raise ValueError(f"cannot parse constraint row {row!r}")
        sense_token, rhs_text = match.group(1), match.group(2)
        lhs = _parse_expr(body[: match.start()], var_index)
        rhs = float(rhs_text)
        if sense_token == "<=":
            model.add_constraint(lhs <= rhs, name=name.strip())
        elif sense_token == ">=":
            model.add_constraint(lhs >= rhs, name=name.strip())
        else:
            model.add_constraint(lhs.equals(rhs), name=name.strip())
    return model


def _split_bound(row: str):
    parts = row.split("<=")
    if len(parts) != 3:
        raise ValueError(f"cannot parse bound row {row!r}")
    return parts[0].strip(), parts[1].strip(), parts[2].strip()
