"""Linear-programming modelling layer used by the TE substrates.

The paper's participants used two different LP toolchains: the NCFlow
open-source prototype uses Gurobi while participant A's reproduction uses
PuLP (CBC), which the paper identifies as the sole cause of a up-to-111x
end-to-end latency gap.  This package provides a small modelling API
(:class:`Model`, :class:`Variable`, :class:`LinExpr`) on top of
``scipy.optimize.linprog`` plus two backend personalities that recreate the
asymmetry:

* :class:`FastLPBackend` -- solves the assembled sparse matrices directly
  (stands in for Gurobi).
* :class:`SlowLPBackend` -- first serialises the model to CPLEX LP text
  format and re-parses it, the way PuLP shells out through an ``.lp`` file
  to CBC, and solves with the slower dual-simplex method (stands in for
  PuLP/CBC).

Both backends return identical optima; only the constant factors differ.

On top of the one-shot backends sits the *session tier*
(:mod:`repro.lp.session`): ``backend.session()`` returns a
:class:`SolveSession` whose solves may warm-start from the previous
solution's support (:class:`WarmStartSession`).  Sweeps and bisections
thread one session across their near-identical solves instead of
solving each point from scratch.
"""

from repro.lp.model import (
    ConstraintSense,
    InfeasibleError,
    LinExpr,
    LPSolveError,
    Model,
    RECOVERABLE_STATUSES,
    SolveResult,
    SolveStatus,
    Variable,
)
from repro.lp.backends import (
    FastLPBackend,
    LPBackend,
    SlowLPBackend,
    get_backend,
)
from repro.lp.session import SessionStats, SolveSession, WarmStartSession

__all__ = [
    "ConstraintSense",
    "FastLPBackend",
    "InfeasibleError",
    "LPBackend",
    "LPSolveError",
    "LinExpr",
    "Model",
    "RECOVERABLE_STATUSES",
    "SessionStats",
    "SlowLPBackend",
    "SolveResult",
    "SolveSession",
    "SolveStatus",
    "Variable",
    "WarmStartSession",
    "get_backend",
]
