"""Simultaneous root finding for polynomials with known multiplicities.

A compact numerical library around a fourth-order simultaneous iteration:
all roots of a monic complex polynomial are refined at once, with the
multiplicity of each root supplied by the caller.  Includes the classic
simple-root variant, a checker for the sufficient convergence conditions,
an a-priori error bound, and empirical convergence-order diagnostics.

Every operation is a pure function of its inputs; concurrent use on shared
immutable data is safe.  A solve call is single-threaded internally.
"""

from .errors import (
    CollisionError,
    DegenerateSystemError,
    InsufficientDataError,
    MultirootsError,
    NonFiniteError,
    ResidualZeroError,
    SingularDenominatorError,
)
from .iteration import (
    SolveConfig,
    SolveReport,
    SolveStatus,
    TraceRecord,
    UpdateMode,
    ek_step,
    gek_step,
    q_log_derivative,
    s_value,
    solve,
)
from .polynomial import MonicPolynomial, eval_with_derivative
from .rootsystem import RootSystem, poly_from_roots, separation
from .theory import TheoremCheckResult, error_bound, estimate_order, theorem_check

__version__ = "0.1.0"

__all__ = [
    "CollisionError",
    "DegenerateSystemError",
    "InsufficientDataError",
    "MonicPolynomial",
    "MultirootsError",
    "NonFiniteError",
    "ResidualZeroError",
    "RootSystem",
    "SingularDenominatorError",
    "SolveConfig",
    "SolveReport",
    "SolveStatus",
    "TheoremCheckResult",
    "TraceRecord",
    "UpdateMode",
    "ek_step",
    "error_bound",
    "estimate_order",
    "eval_with_derivative",
    "gek_step",
    "poly_from_roots",
    "q_log_derivative",
    "s_value",
    "separation",
    "solve",
    "theorem_check",
]
