"""Monic complex polynomials and their exact evaluation."""

from __future__ import annotations

import math
from math import frexp, hypot, ldexp
from struct import Struct

from ._record import Record, set_field
from .errors import NonFiniteError

#: `eval_with_derivative` rounds each part of z to a multiple of
#: 2^min(0, e - _GRID_BITS), where 2^(e-1) <= max(|Re z|, |Im z|) < 2^e; this
#: bounds the width of its integers.
_GRID_BITS = 110

#: The fixed-grid pass of `eval_with_derivative` keeps its values about this
#: many bits (P) below Sum |a_k| |z'|^(n-k), and runs when n^2 E reaches
#: _FIXED_GRID_WORK, where it costs less than the exact pass.
_FIXED_GRID_BITS = 256
_FIXED_GRID_WORK = 3 * 2 ** 13

_bits = Struct("<4d").pack

#: (polynomial, F, [Re 2^F a_1, Im 2^F a_1, ..., Im 2^F a_n], sizes, recent,
#: older) for the polynomial `eval_with_derivative` saw last, with the least
#: F >= 0 that makes these integers and sizes[k-1] = max(|Re a_k|, |Im a_k|)
#: for the fixed-grid pass.  A solve evaluates one polynomial many times in a
#: row, so this one entry saves converting the coefficients on each call; a
#: cache on every polynomial would cost several hundred bytes each.  The two
#: dicts map a point z to its (A, A') pair: a solve evaluates each new
#: iterate for its residual and the next sweep evaluates it again, and such a
#: repeat costs a lookup instead of a Horner pass.  A pair is added to
#: ``recent``; when ``recent`` holds 2n pairs the entry is replaced by one
#: whose ``recent`` is empty and whose ``older`` is the full one, so at most
#: 4n pairs are kept and each survives at least 2n further new points (a
#: solve reuses a point within 2m <= 2n of them).  The tuple is replaced,
#: never changed, so concurrent callers see a whole one; its dicts are only
#: read and added to, never iterated, and a pair depends on the polynomial
#: and z alone, so a lost or duplicated addition costs a Horner pass at most.
_last_scaled = (None, 0, [], [], {}, {})


def is_finite(z: complex) -> bool:
    """True when both parts of z are finite (no inf, no nan)."""
    return math.isfinite(z.real) and math.isfinite(z.imag)


def require_finite(z: complex, what: str) -> complex:
    if not is_finite(z):
        raise NonFiniteError(f"{what} is not finite: {z!r}")
    return z


def dyadic_integers(parts) -> tuple[int, list[int]]:
    """The least e >= 0 such that 2^e p is an integer for every float p in
    ``parts``, and those integers."""
    ratios = [p.as_integer_ratio() for p in parts]
    e = max(d.bit_length() for _, d in ratios) - 1
    return e, [n << (e + 1 - d.bit_length()) for n, d in ratios]


class MonicPolynomial(Record):
    """A monic polynomial  x^n + a_1 x^(n-1) + ... + a_n.

    Only the trailing coefficients a_1..a_n are stored; the leading
    coefficient is implicitly 1.  The degree equals the number of stored
    coefficients and must be at least 1.
    """

    low_coefficients: tuple[complex, ...]

    def __init__(self, low_coefficients: tuple[complex, ...]) -> None:
        coeffs = tuple(complex(c) for c in low_coefficients)
        if len(coeffs) < 1:
            raise ValueError("a monic polynomial needs degree >= 1")
        for k, c in enumerate(coeffs, start=1):
            if not is_finite(c):
                raise ValueError(f"coefficient a_{k} is not finite: {c!r}")
        set_field(self, "low_coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.low_coefficients)


def eval_with_derivative(poly: MonicPolynomial, z: complex) -> tuple[complex, complex]:
    """Evaluate a monic polynomial and its first derivative at z.

    Every binary64 number is a dyadic rational, so both values are computed
    exactly and each part is rounded once to nearest; near a multiple root
    the residual keeps its sign and every significant bit down to the
    underflow range.  With the coefficients over a common 2^F and z over
    2^E, one Horner pass over Gaussian integers forms A(z) 2^(F+nE) and
    A'(z) 2^(F+(n-1)E), and int true division rounds each part (CPython
    rounds it correctly).

    A part of z far below the other is rounded first: the values are exact
    at z', which is z with each part rounded to the nearest multiple of
    2^min(0, e - 110) (ties to even), where 2^(e-1) <= max(|Re z|, |Im z|)
    < 2^e.  Only a part below 2^(e-58) can move, and |z' - z| <= 2^-110 |z|;
    so z' = z unless one part is more than 2^57 times the other, and
    1.3 + 1e-300j evaluates at 1.3.

    That exact pass widens its integers by about E bits per step, so it
    costs O(n^2 E): E is about 53 at |z| ~ 1 and 1074 at subnormal z.  When
    n^2 E >= 3 * 2^13 (n >= 22 at |z| ~ 1, n >= 5 at subnormal z), a
    fixed-grid pass runs first (Ziv's strategy).  It runs Horner at the
    same z' on integers kept on the grid 2^-G, with G chosen so that the
    values keep about P = 256 bits below Sum |a_k| |z'|^(n-k); each step
    floors the product by 2^E, coefficient bits below the grid are dropped,
    and a rigorous bound on the error of A and of A' is carried.  Each part
    is rounded at both ends of its error interval, and the pair is returned
    only if every part gives the same binary64 number, sign of zero
    included: rounding is monotone, so that is the exact pass's number.
    Otherwise the exact pass runs, for 2-8% of the fixed-grid passes of the
    wide benchmark solves: where a part cancels below about 2^-200 of its
    terms (near a multiple root) or is exactly 0 (as at an iterate on a
    root).  So every result has the exact pass's bits.  Per call at a new
    point, dense coefficients, in us, as two-stage / exact pass alone at
    |z| ~ 1, |z| ~ 1e-100 and subnormal z (median of 3 runs on a shared
    Xeon, CPython 3.11; runs scatter by +-30%): degree 6, 18 / 18,
    26 / 26, 24 / 38 (only the last uses the fixed grid); degree 24,
    62 / 71, 59 / 215, 57 / 389; degree 48, 112 / 186, 105 / 708,
    101 / 1257; degree 96, 205 / 508, 173 / 1568, 108 / 2819.

    That Horner pass is made once per point: the pairs of the last 2n to
    4n new points are kept for the polynomial evaluated last, so a call at
    a point equal (under ``==``) to one of them returns the kept pair, the
    same bits, for the cost of a dictionary lookup (under 1 us).  A solve
    evaluates each iterate for its residual and again in the next sweep;
    the second call is such a lookup.  Evaluating another polynomial drops
    the kept pairs.

    Parameters
    ----------
    poly : MonicPolynomial
    z : complex
        Evaluation point; must be finite.

    Returns
    -------
    (value, derivative) : tuple of complex
        An exactly zero part is +0.0.

    Raises
    ------
    NonFiniteError
        If z is not finite or a result part overflows binary64.
    """
    global _last_scaled
    zc = complex(z)
    require_finite(zc, "evaluation point")
    scaled = _last_scaled
    if scaled[0] is not poly:
        coeffs = poly.low_coefficients
        scaled = _last_scaled = (
            poly, *dyadic_integers([p for c in coeffs for p in (c.real, c.imag)]),
            [max(abs(c.real), abs(c.imag)) for c in coeffs], {}, {})
    _, f, ints, sizes, recent, older = scaled
    pair = recent.get(zc) or older.get(zc)
    if pair is None:
        try:
            pair = _horner_pair(f, ints, sizes, zc.real, zc.imag)
        except OverflowError:
            raise NonFiniteError(
                f"polynomial evaluation overflowed at z={zc!r} (degree {poly.degree})"
            ) from None
        if len(recent) >= 2 * poly.degree:
            recent, older = {}, recent
            _last_scaled = (poly, f, ints, sizes, recent, older)
        recent[zc] = pair
    return pair


def _horner_pair(f, ints, sizes, x, y):
    # (A(z'), A'(z')) for the coefficients ``ints`` over 2^f, each part
    # rounded once, from the fixed-grid pass where it is used and its
    # rounding test passes, else from the exact pass; raises OverflowError
    # when a part is beyond binary64.  See `eval_with_derivative`.
    e, (zr, zi) = dyadic_integers((x, y))
    grid = max(0, _GRID_BITS - frexp(max(abs(x), abs(y)))[1])
    if e > grid:  # a part has bits below the grid: evaluate at z'
        e, (zr, zi) = dyadic_integers(
            [ldexp(round(ldexp(p, grid)), -grid) for p in (x, y)])
    if len(sizes) ** 2 * e >= _FIXED_GRID_WORK:
        try:
            pair = _fixed_grid_pair(f, ints, sizes, e, zr, zi)
        except OverflowError:  # the exact pass tells whether it overflows
            pair = None
        if pair is not None:
            return pair
    return _exact_pair(f, ints, e, zr, zi)


def _exact_pair(f, ints, e, zr, zi):
    # The pair at z' = (zr + i zi) / 2^e from one exact Horner pass.
    vr, vi, dr, di = 1 << f, 0, 0, 0
    shift = 0
    for cr, ci in zip(ints[0::2], ints[1::2]):
        shift += e
        dr, di = dr * zr - di * zi + vr, dr * zi + di * zr + vi
        vr, vi = vr * zr - vi * zi + (cr << shift), vr * zi + vi * zr + (ci << shift)
    value_scale, deriv_scale = 1 << (f + shift), 1 << (f + shift - e)
    return (complex(vr / value_scale, vi / value_scale),
            complex(dr / deriv_scale, di / deriv_scale))


def _fixed_grid_pair(f, ints, sizes, e, zr, zi):
    # The same pair from Horner on the grid 2^-g, or None when an error
    # interval does not round to one binary64 number.  In units of 2^-g,
    # each step's floors add an error below 2 per part (one for the
    # product, one for a coefficient truncated to the grid), so below 3 in
    # modulus, and every earlier error grows by |z'| per step: with
    # s = n max(1, |z'|)^(n-1), A's error is below 3s and A''s, whose steps
    # add one floor and A's error, below s (2 + 3s).  These are exact
    # integers while |z'| (1 + 2^-40) <= 1; above, that factor covers the
    # rounding of |z'|, of the power and of the products.
    r = ldexp(hypot(zr, zi), -e)
    size = 1.0
    for a in sizes:  # at least 2^-0.5 Sum |a_k| |z'|^(n-k)
        size = size * r + a
    g = max(0, _FIXED_GRID_BITS - frexp(size)[1])
    t = g + e - f
    cs = [c << t for c in ints] if t >= 0 else [c >> -t for c in ints]
    vr, vi, dr, di = 1 << g, 0, 0, 0
    for cr, ci in zip(cs[0::2], cs[1::2]):
        dr, di = ((dr * zr - di * zi) >> e) + vr, ((dr * zi + di * zr) >> e) + vi
        vr, vi = (vr * zr - vi * zi + cr) >> e, (vr * zi + vi * zr + ci) >> e
    s = len(sizes) * max(1.0, r * (1 + 2.0 ** -40)) ** (len(sizes) - 1)
    bv, bd = int(3 * s) + 1, int(s * (2 + 3 * s)) + 1
    # with z' and every coefficient real, both imaginary parts are exactly 0
    bvi, bdi = (bv, bd) if zi or any(ints[1::2]) else (0, 0)
    scale = 1 << g
    low = ((vr - bv) / scale, (vi - bvi) / scale,
           (dr - bd) / scale, (di - bdi) / scale)
    if _bits(*low) != _bits((vr + bv) / scale, (vi + bvi) / scale,
                            (dr + bd) / scale, (di + bdi) / scale):
        return None
    return complex(low[0], low[1]), complex(low[2], low[3])


def integer_power(base: complex, exponent: int) -> complex:
    """base**exponent by binary exponentiation, for exponent >= 0.

    Repeated-multiplication semantics: exponent 0 returns 1 even for
    base 0 (empty product).
    """
    if exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = complex(1.0)
    b = complex(base)
    e = int(exponent)
    while e:
        if e & 1:
            result *= b
        e >>= 1
        if e:  # square only when another bit needs it
            b *= b
            if not (math.isfinite(b.real) and math.isfinite(b.imag)):
                raise NonFiniteError(f"integer_power overflowed: base={base!r}")
    if not (math.isfinite(result.real) and math.isfinite(result.imag)):
        raise NonFiniteError(f"integer_power result is not finite: {result!r}")
    return result
