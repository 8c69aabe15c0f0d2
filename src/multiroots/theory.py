"""Convergence guarantee checking and convergence-order diagnostics.

The sufficient-condition check is pure arithmetic on the root geometry:
given a radius ``c`` around each root for the initial guesses and a
contraction base ``q``, it decides whether the fourth-order error bound
``|x_i^[k] - x_i| < c * q**(4**k)`` is guaranteed.  A failed check means
"no guarantee", never "will not converge".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateSystemError, InsufficientDataError
from .iteration import IterationTrace
from .rootsystem import RootSystem, separation

#: Error pairs below 100 * eps * max(1, |root|) are saturated by rounding
#: and are discarded before fitting a convergence order.
NOISE_FLOOR_FACTOR = 100.0 * np.finfo(float).eps

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


@dataclass(frozen=True)
class TheoremConstants:
    """Constants of the guarantee inequality for one root system.

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


@dataclass(frozen=True)
class TheoremCheckResult:
    constants: TheoremConstants
    lhs: float
    per_root_margin: tuple[float, ...]
    guaranteed: bool
    reason: Optional[str] = None


def theorem_check(rs: RootSystem, c: float, q: float) -> TheoremCheckResult:
    """Evaluate the sufficient conditions for guaranteed fourth-order
    convergence from initial guesses within ``c*q`` of each root.

    Computes the separation d, the growth factors M and N, the common
    left-hand side of the per-root inequality, and the margins
    ``alpha_i - lhs``.  ``guaranteed`` holds exactly when q < 1,
    d - 2c > 0, and every margin is positive.
    """
    if rs.m < 2:
        raise DegenerateSystemError(
            "the guarantee needs at least two distinct roots (d is a "
            "minimum over pairs)"
        )
    if not c > 0.0:
        raise ValueError("c must be positive")
    if not math.isfinite(q):
        raise ValueError("q must be finite")

    d = separation(rs)
    n = rs.degree
    gap = d - 2.0 * c
    if gap <= 0.0:
        constants = TheoremConstants(c=c, q=q, d=d, n=n,
                                     M=float("inf"), N=float("inf"))
        return TheoremCheckResult(
            constants=constants,
            lhs=float("inf"),
            per_root_margin=tuple(float("-inf") for _ in rs.multiplicities),
            guaranteed=False,
            reason=f"d - 2c = {gap:.6g} is not positive",
        )

    ratio = c / gap
    big_m = _power_minus_one(1.0 + ratio, n)
    big_n = _power_minus_one(1.0 + n * ratio * ratio, n - 1)
    overflowed = math.isinf(big_m) or math.isinf(big_n)
    if overflowed:
        lhs = math.inf
    else:
        lhs = (2.0 * c * c * n / (gap * gap)) * (
            ratio + (1.0 + ratio) * (big_n + big_m * big_n + big_m)
        )
    margins = tuple(a - lhs for a in rs.multiplicities)
    constants = TheoremConstants(c=c, q=q, d=d, n=n, M=big_m, N=big_n)

    if not q < 1.0:
        return TheoremCheckResult(constants, lhs, margins, False,
                                  reason=f"q = {q:.6g} is not below 1")
    if min(margins) <= 0.0:
        return TheoremCheckResult(
            constants, lhs, margins, False,
            reason=f"inequality fails: lhs = {lhs:.6g} reaches the smallest "
                   f"multiplicity {min(rs.multiplicities)}"
                   + (" (M or N overflows binary64)" if overflowed else ""),
        )
    return TheoremCheckResult(constants, lhs, margins, True)


def _power_minus_one(base: float, exponent: int) -> float:
    """base**exponent - 1 for base >= 1, or +inf where the power overflows."""
    try:
        return base ** exponent - 1.0
    except OverflowError:
        return math.inf


def error_bound(c: float, q: float, k: int) -> float:
    """A-priori error bound c * q**(4**k) after k iterations.

    Underflows cleanly to 0 for large k, which is the correct limit.
    """
    if not c > 0.0:
        raise ValueError("c must be positive")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    try:
        exponent = 4.0 ** int(k)
    except OverflowError:
        return 0.0
    if math.isinf(exponent):
        return 0.0
    return c * math.pow(q, exponent)


def errors_against(trace: IterationTrace, roots: Sequence[complex]) -> list[list[float]]:
    """Per-root error sequences e_i[k] = |x_i^[k] - x_i| along a trace."""
    return [
        [abs(rec.values[i] - roots[i]) for rec in trace]
        for i in range(len(roots))
    ]


def estimate_order(trace: IterationTrace, true_roots: RootSystem) -> list[Optional[float]]:
    """Empirical convergence order per root from an iteration trace.

    For each root the least-squares slope of log e_[k+1] against log e_k
    is fitted over consecutive pairs whose errors both exceed the rounding
    noise floor and that still make progress (saturated pairs, where the
    error has stopped contracting, carry no order information).  Indices
    with fewer than MIN_USABLE_PAIRS usable pairs report None
    (insufficient data); saturated fourth-order runs in binary64 typically
    land there, because machine precision is reached within two or three
    sweeps.

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
        if len(xs) < MIN_USABLE_PAIRS:
            orders.append(None)
        else:
            slope = float(np.polyfit(np.array(xs), np.array(ys), 1)[0])
            orders.append(slope)
    return orders
