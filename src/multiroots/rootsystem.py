"""Root configurations: known roots with known multiplicities."""

from __future__ import annotations

import operator

from ._record import Record, set_fields
from .errors import DegenerateSystemError
from .polynomial import MonicPolynomial, _as_complexes, dyadic_integers

#: The one collision rule: two points closer than this, relative to
#: ``max(1, max|x_i|)``, are one point in binary64, where (x_i - x_j)^-2
#: carries no significance.  `RootSystem` rejects such roots (merge them into
#: one root of higher multiplicity), and the solver stops with a collision
#: when two approximations come this close.
DISTINCTNESS_THRESHOLD = 1e-12

_REAL = operator.attrgetter("real")


class RootSystem(Record):
    """Distinct roots x_1..x_m with multiplicities summing to the degree.

    Invariants enforced at construction: at least one root, equal-length
    lists, positive integer multiplicities, finite roots, and pairwise
    distances above ``DISTINCTNESS_THRESHOLD * max(1, max|x_i|)``.
    """

    roots: tuple[complex, ...]
    multiplicities: tuple[int, ...]

    def __init__(self, roots: tuple[complex, ...],
                 multiplicities: tuple[int, ...]) -> None:
        roots = _as_complexes(roots, lambda k, r: ValueError(
            f"root is not finite: {r!r}"))
        if len(roots) < 1:
            raise ValueError("a root system needs at least one root")
        mults = _as_multiplicities(multiplicities, len(roots), "roots")
        limit = _collision_limit(roots)
        pair = _first_collision(roots, limit)
        if pair is not None:
            raise ValueError(
                f"roots {pair[0]} and {pair[1]} are closer than {limit:.3e}; "
                f"merge them into one root of higher multiplicity"
            )
        set_fields(self, roots, mults)

    @property
    def m(self) -> int:
        """Number of distinct roots."""
        return len(self.roots)

    @property
    def degree(self) -> int:
        """Degree of the associated polynomial (sum of multiplicities)."""
        return sum(self.multiplicities)


def _collision_limit(values) -> float:
    """``DISTINCTNESS_THRESHOLD * max(1, max|x_i|)``: two of ``values`` at
    most this far apart collide."""
    return DISTINCTNESS_THRESHOLD * max(1.0, max(map(abs, values)))


def _first_collision(values, limit, frozen=None):
    """The first pair (j, i), j < i, of ``values`` at most ``limit`` apart,
    in order of i and then of j, skipping pairs of two ``frozen`` indices
    (flags indexed like ``values``; None freezes none); None if there is
    no such pair.

    The one collision check of the package.  A screen comes first: with the
    points sorted by real part, only those whose real parts lie within
    2 * limit of each other are measured (about m pairs where the points
    are spread out).  It is sound: a colliding pair has |Re d| <= |d| and
    abs(d) <= limit, and abs errs by under an ulp, so its real parts lie
    less than 2 * limit apart.  A hit returns what `_scan_pairs`, the scan
    of all m(m - 1)/2 pairs in that order, finds; a hit on a pair of two
    frozen indices alone finds None there.
    """
    points = sorted(values, key=_REAL)
    reach = 2 * limit
    for n in range(1, len(points)):
        z = points[n]
        k = n - 1
        while k >= 0 and z.real - points[k].real <= reach:
            if abs(z - points[k]) <= limit:
                return _scan_pairs(values, limit, frozen)
            k -= 1
    return None


def _scan_pairs(values, limit, frozen):
    # `_first_collision` by checking every pair, in its order
    return next(((j, i) for i, x_i in enumerate(values) for j in range(i)
                 if not (frozen and frozen[i] and frozen[j])
                 and abs(x_i - values[j]) <= limit), None)


def _as_multiplicities(values, m, what) -> tuple[int, ...]:
    """``values`` as m ints, for the m roots or approximations that ``what``
    names; ValueError for another count and for a value that is a bool, not
    an integer (``2.5``, ``2.0``) or below 1."""
    mults = tuple(values)
    if not all([type(a) is int and a >= 1 for a in mults]):  # ints >= 1 stay as they are
        mults = tuple(map(_as_multiplicity, mults))
    if len(mults) != m:
        raise ValueError(f"{m} {what} but {len(mults)} multiplicities")
    return mults


def _as_multiplicity(a) -> int:
    if not isinstance(a, bool):
        try:
            if (k := operator.index(a)) >= 1:
                return k
        except TypeError:
            pass
    raise ValueError(f"multiplicities must be integers >= 1, got {a!r}")


def poly_from_roots(rs: RootSystem) -> MonicPolynomial:
    """Expand prod (x - x_i)^alpha_i into a monic coefficient list.

    Each coefficient is the exact product rounded once to binary64, so the
    result does not depend on the order of the roots.  Scaled by a common
    2^E, every root part is an integer; the product is expanded over
    Gaussian integers and a_k divided by 2^(E*k) in int true division,
    which CPython rounds correctly (the signed zero of an underflow
    included).  Raises ValueError when a coefficient overflows.
    """
    e, scaled = dyadic_integers([p for r in rs.roots for p in (r.real, r.imag)])
    factors = [(xr, xi) for xr, xi, mult in
               zip(scaled[0::2], scaled[1::2], rs.multiplicities)
               for _ in range(mult)]
    re, im = [1] + [0] * rs.degree, [0] * (rs.degree + 1)
    for n, (xr, xi) in enumerate(factors, start=1):
        # Multiply by (x - X) in place, highest degree first.
        for k in range(n, 0, -1):
            pr, pi = re[k - 1], im[k - 1]
            re[k] -= xr * pr - xi * pi
            im[k] -= xr * pi + xi * pr
    low = []
    for k in range(1, rs.degree + 1):
        scale = 1 << (e * k)
        try:
            low.append(complex(re[k] / scale, im[k] / scale))
        except OverflowError:
            raise ValueError(f"expanded coefficient a_{k} overflowed") from None
    return MonicPolynomial(tuple(low))


def separation(rs: RootSystem) -> float:
    """Minimum pairwise distance between the distinct roots.

    Undefined for a single root (the minimum runs over pairs); raises
    DegenerateSystemError when m == 1.
    """
    if rs.m < 2:
        raise DegenerateSystemError(
            "separation needs at least two distinct roots"
        )
    return min(
        abs(rs.roots[i] - rs.roots[j])
        for i in range(rs.m)
        for j in range(i)
    )
