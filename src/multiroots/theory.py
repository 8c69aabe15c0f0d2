"""Convergence guarantee checking and convergence-order diagnostics.

The sufficient-condition check is pure arithmetic on the root geometry:
given a radius ``c`` around each root for the initial guesses and a
contraction base ``q``, it decides whether the fourth-order error bound
``|x_i^[k] - x_i| < c * q**(4**k)`` is guaranteed.  A failed check means
"no guarantee", never "will not converge".
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Optional, Sequence

from ._record import Record, set_fields
from .errors import DegenerateSystemError, InsufficientDataError
from .polynomial import _as_float
from .rootsystem import RootSystem, separation

#: Error pairs below 100 * eps * max(1, |root|) are saturated by rounding
#: and are discarded before fitting a convergence order.
NOISE_FLOOR_FACTOR = 100.0 * sys.float_info.epsilon

#: A pair must contract by at least this factor to count as progress.
#: Sequences parked at their attainable accuracy (frozen components, or
#: stalls at the evaluation noise shelf of an ill-conditioned problem)
#: produce ratio-one pairs that say nothing about the convergence order.
STAGNATION_RATIO = 0.5

#: Least-squares order fits need at least this many usable consecutive
#: pairs.  Two pairs determine a line exactly and carry no evidence that
#: the log-log relation is linear at all; fourth-order runs in binary64
#: saturate too fast to clear this bar, and the estimator reports
#: "insufficient data" for them rather than an unreliable two-point slope.
MIN_USABLE_PAIRS = 3


class TheoremCheckResult(Record):
    """The guarantee inequality's constants for one root system, its
    left-hand side, the per-root margins ``alpha_i - lhs`` and the verdict.
    The fields, in order, are the keys of ``multiroots check-theorem``'s
    output.

    M and N are the growth factors
    ``M = (1 + c/(d-2c))**n - 1`` and ``N = (1 + n*(c/(d-2c))**2)**(n-1) - 1``;
    both are +inf when d - 2c <= 0, where the guarantee machinery is
    undefined, and each is +inf when its power overflows binary64.
    """

    c: float
    q: float
    d: float
    n: int
    M: float
    N: float
    lhs: float
    per_root_margin: tuple[float, ...]
    guaranteed: bool
    reason: Optional[str]

    def __init__(
        self,
        c: float,
        q: float,
        d: float,
        n: int,
        M: float,
        N: float,
        lhs: float,
        per_root_margin: tuple[float, ...],
        guaranteed: bool,
        reason: Optional[str] = None,
    ) -> None:
        set_fields(self, c, q, d, n, M, N, lhs, per_root_margin, guaranteed,
                   reason)


def theorem_check(rs: RootSystem, c: float, q: float) -> TheoremCheckResult:
    """Evaluate the sufficient conditions for guaranteed fourth-order
    convergence from initial guesses within ``c*q`` of each root.

    Computes the separation d, the growth factors M and N, the common
    left-hand side of the per-root inequality, and the margins
    ``alpha_i - lhs``.  ``guaranteed`` holds exactly when q < 1,
    d - 2c > 0, and every margin is positive.  ``c`` and ``q`` must be
    positive real numbers, and q finite (ValueError otherwise: a str, None
    or a complex is no number, nor is an int beyond binary64's range);
    q >= 1 is "no guarantee".  Both are computed with, and stored as,
    floats.
    """
    if rs.m < 2:
        raise DegenerateSystemError(
            "the guarantee needs at least two distinct roots (d is a "
            "minimum over pairs)"
        )
    c, q = _as_float(c), _as_float(q)
    if not c > 0.0:
        raise ValueError("c must be positive")
    if not math.isfinite(q):
        raise ValueError("q must be finite")
    if not q > 0.0:
        raise ValueError("q must be positive")

    d = separation(rs)
    n = rs.degree
    gap = d - 2.0 * c
    big_m = big_n = lhs = math.inf
    overflowed = False
    if gap > 0.0:
        ratio = c / gap
        big_m = _power_minus_one(1.0 + ratio, n)
        big_n = _power_minus_one(1.0 + n * ratio * ratio, n - 1)
        overflowed = math.isinf(big_m) or math.isinf(big_n)
        if not overflowed:
            lhs = (2.0 * c * c * n / (gap * gap)) * (
                ratio + (1.0 + ratio) * (big_n + big_m * big_n + big_m)
            )
    margins = tuple(a - lhs for a in rs.multiplicities)

    reason = None
    if not gap > 0.0:
        reason = f"d - 2c = {gap:.6g} is not positive"
    elif not q < 1.0:
        reason = f"q = {q:.6g} is not below 1"
    elif min(margins) <= 0.0:
        reason = (f"inequality fails: lhs = {lhs:.6g} reaches the smallest "
                  f"multiplicity {min(rs.multiplicities)}"
                  + (" (M or N overflows binary64)" if overflowed else ""))
    return TheoremCheckResult(c, q, d, n, big_m, big_n, lhs, margins,
                              reason is None, reason)


def _power_minus_one(base: float, exponent: int) -> float:
    """base**exponent - 1 for base >= 1, or +inf where the power overflows."""
    try:
        return base ** exponent - 1.0
    except OverflowError:
        return math.inf


def error_bound(c: float, q: float, k: int) -> float:
    """A-priori error bound c * q**(4**k) after k iterations.

    Underflows cleanly to 0 for large k, which is the correct limit.
    ValueError is raised unless c > 0 and 0 < q < 1, as for
    `theorem_check`, and for a ``k`` that is a bool, not an integer (such
    as 2.5 or 2.0) or negative.  The bound is computed with c and q as
    floats.
    """
    c, q = _as_float(c), _as_float(q)
    if not c > 0.0:
        raise ValueError("c must be positive")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if isinstance(k, bool) or not hasattr(type(k), "__index__") or operator.index(k) < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    try:
        exponent = 4.0 ** operator.index(k)  # a float power raises rather than give inf
    except OverflowError:
        return 0.0
    return c * math.pow(q, exponent)


def estimate_order(trace: Sequence, true_roots: RootSystem) -> list[Optional[float]]:
    """Empirical convergence order per root from an iteration trace: a
    sequence of `TraceRecord`, such as `SolveReport.trace`.

    For each root the least-squares slope of log e_[k+1] against log e_k
    is fitted over consecutive pairs whose errors both exceed the rounding
    noise floor and that still make progress (saturated pairs, where the
    error has stopped contracting, carry no order information).  Indices
    with fewer than MIN_USABLE_PAIRS usable pairs report None
    (insufficient data); saturated fourth-order runs in binary64 typically
    land there, because machine precision is reached within two or three
    sweeps.  So do indices whose usable pairs all share one log e_k,
    where the slope is undefined.

    Raises
    ------
    InsufficientDataError
        If the trace is structurally too short (< 3 records) to ever
        produce a fit.
    """
    if len(trace) < 3:
        raise InsufficientDataError(
            f"trace has {len(trace)} records; at least 3 are needed"
        )
    if true_roots.m != len(trace[0].values):
        raise ValueError(
            f"trace tracks {len(trace[0].values)} components but "
            f"{true_roots.m} true roots were given"
        )

    import statistics  # only here: it loads fractions and decimal

    orders: list[Optional[float]] = []
    for i, root in enumerate(true_roots.roots):
        floor = NOISE_FLOOR_FACTOR * max(1.0, abs(root))
        errs = [abs(rec.values[i] - root) for rec in trace]
        xs = []
        ys = []
        for k in range(len(errs) - 1):
            if (errs[k] > floor and errs[k + 1] > floor
                    and errs[k + 1] < STAGNATION_RATIO * errs[k]):
                xs.append(math.log(errs[k]))
                ys.append(math.log(errs[k + 1]))
        if len(xs) < MIN_USABLE_PAIRS or min(xs) == max(xs):
            orders.append(None)
        else:
            orders.append(statistics.linear_regression(xs, ys).slope)
    return orders
