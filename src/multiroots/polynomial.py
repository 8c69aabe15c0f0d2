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

#: (polynomial, F, ints, real, sizes, recent, older) for the polynomial
#: `eval_with_derivative` saw last.  ``real`` says whether every Im a_k is 0;
#: ``ints`` is then [2^F a_1, ..., 2^F a_n], else [Re 2^F a_1, Im 2^F a_1,
#: ..., Im 2^F a_n], with the least F >= 0 that makes these integers.
#: ``sizes`` is empty until the polynomial's first fixed-grid pass fills it,
#: in one step, with sizes[k-1] = max(|Re a_k|, |Im a_k|); a polynomial that
#: never takes that pass (low degree, |z| ~ 1) never builds it.  A solve
#: evaluates one polynomial many times in a row, so this one entry saves
#: converting the coefficients on each call; a cache on every polynomial
#: would cost several hundred bytes each.  The two dicts map a point z to
#: its (A, A') pair: a solve evaluates each new iterate for its residual and
#: the next sweep evaluates it again, and such a repeat costs a dict probe
#: instead of a Horner pass.  A pair is added to ``recent``; when ``recent``
#: holds 2n pairs the entry is replaced by one whose ``recent`` is empty and
#: whose ``older`` is the full one, so at most 4n pairs are kept and each
#: survives at least 2n further new points (a solve reuses a point within
#: 2m <= 2n of them).  The tuple is replaced, never changed, so concurrent
#: callers see a whole one; its dicts are only read and added to, never
#: iterated, and a pair depends on the polynomial and z alone, so a lost or
#: duplicated addition costs a Horner pass at most; ``sizes`` goes from
#: empty to whole in one slice assignment, the same by every caller.
_last_scaled = (None, 0, [], False, [], {}, {})


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

    Real coefficients (every Im a_k zero, either sign; decided once per
    polynomial) take Knuth's second-order Horner recurrence instead, in
    both passes below: A is divided by the real quadratic
    x^2 - 2 Re z x + |z|^2, which vanishes at z, so A(z) = b_n - b_(n-1)
    conj(z) from the remainder's recurrence b_k, and A'(z) = b_(n-1) +
    2 i Im z Q(z) from a second recurrence for the quotient Q.  A step makes
    4 integer products where complex Horner makes 8; the values, and so
    the bits, are the same.

    A part of z far below the other is rounded first: the values are exact
    at z', which is z with each part rounded to the nearest multiple of
    2^min(0, e - 110) (ties to even), where 2^(e-1) <= max(|Re z|, |Im z|)
    < 2^e.  Only a part below 2^(e-58) can move, and |z' - z| <= 2^-110 |z|;
    so z' = z unless one part is more than 2^57 times the other, and
    1.3 + 1e-300j evaluates at 1.3.

    That exact pass widens its integers by about E bits per step, so it
    costs O(n^2 E): E is about 53 at |z| ~ 1 and 1074 at subnormal z.  When
    n^2 E >= 3 * 2^13 (n >= 22 at |z| ~ 1, n >= 5 at subnormal z), a
    fixed-grid pass runs first (Ziv's strategy).  It runs the same
    recurrence at the same z' on integers kept on the grid 2^-G, with G
    chosen so that the values keep about P = 256 bits below
    Sum |a_k| |z'|^(n-k); each step floors its products, coefficient bits
    below the grid are dropped, and a rigorous bound on the error of A and
    of A' is carried (for real coefficients Im A and Im A', Im z' times a
    real value, keep their own scale, so points near the real axis decide
    too).  Each part is rounded at both ends of its error interval, and the
    pair is returned only if every part gives the same binary64 number,
    sign of zero included: rounding is monotone, so that is the exact
    pass's number.  Otherwise the exact pass runs, for 2-7% of the
    fixed-grid passes of the wide benchmark solves: where a part cancels
    below about 2^-200 of its terms (near a multiple root) or is exactly 0
    (as at an iterate on a root).  So every result has the exact pass's
    bits.  Per call at a new point, dense coefficients, in us, as
    two-stage / exact pass alone at |z| ~ 1, |z| ~ 1e-100 and subnormal z
    (median of 3 runs on a shared Xeon, CPython 3.11; runs scatter by
    +-30%; one figure where only the exact pass runs):

    ==========  ====================================  ====================================
    degree      real coefficients                     complex coefficients
    ==========  ====================================  ====================================
    6           12, 17, 20 / 23                       16, 18, 14 / 22
    24          26 / 24, 25 / 76, 23 / 113            35 / 39, 32 / 116, 32 / 199
    48          41 / 58, 41 / 263, 43 / 385           61 / 94, 54 / 420, 57 / 721
    96          74 / 176, 72 / 922, 67 / 1353         117 / 286, 105 / 1491, 112 / 2705
    ==========  ====================================  ====================================

    That Horner pass is made once per point: the pairs of the last 2n to
    4n new points are kept for the polynomial evaluated last, so a call at
    a point equal (under ``==``) to one of them returns the kept pair, the
    same bits.  z is looked up before it is checked (a kept point is
    finite), and converted first only if it is not a complex (the float
    2.0 finds the pair kept for 2 + 0j), so a repeat costs one or two
    dictionary probes: about 0.15 us a call on the Xeon above, against
    0.3-0.6 us with the conversion and check first.  A solve evaluates
    each iterate for its residual and again in the next sweep; the second
    call is such a repeat.  Evaluating another polynomial drops the kept
    pairs.

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
    zc = z if type(z) is complex else complex(z)
    scaled = _last_scaled
    if scaled[0] is poly:  # a kept point is finite, so a hit needs no check
        pair = scaled[5].get(zc) or scaled[6].get(zc)
        if pair is not None:
            return pair
    require_finite(zc, "evaluation point")
    if scaled[0] is not poly:
        coeffs = poly.low_coefficients
        real = not any([c.imag for c in coeffs])
        scaled = _last_scaled = (
            poly, *dyadic_integers([c.real for c in coeffs] if real else
                                   [p for c in coeffs for p in (c.real, c.imag)]),
            real, [], {}, {})
    try:
        pair = _horner_pair(scaled, zc.real, zc.imag)
    except OverflowError:
        raise NonFiniteError(
            f"polynomial evaluation overflowed at z={zc!r} (degree {poly.degree})"
        ) from None
    recent = scaled[5]
    if len(recent) >= 2 * poly.degree:
        recent, older = {}, recent
        _last_scaled = (*scaled[:5], recent, older)
    recent[zc] = pair
    return pair


def _horner_pair(scaled, x, y):
    # (A(z'), A'(z')) for the polynomial of a `_last_scaled` entry, each part
    # rounded once, from the fixed-grid pass where it is used and its
    # rounding test passes, else from the exact pass; raises OverflowError
    # when a part is beyond binary64.  See `eval_with_derivative`.
    poly, f, ints, real, sizes, _, _ = scaled
    e, (zr, zi) = dyadic_integers((x, y))
    grid = max(0, _GRID_BITS - frexp(max(abs(x), abs(y)))[1])
    if e > grid:  # a part has bits below the grid: evaluate at z'
        e, (zr, zi) = dyadic_integers(
            [ldexp(round(ldexp(p, grid)), -grid) for p in (x, y)])
    coeffs = poly.low_coefficients
    if len(coeffs) ** 2 * e >= _FIXED_GRID_WORK:
        if not sizes:  # filled in one step, at the polynomial's first such pass
            sizes[:] = [max(abs(c.real), abs(c.imag)) for c in coeffs]
        try:
            pair = _fixed_grid_pair(f, ints, real, sizes, e, zr, zi)
        except OverflowError:  # the exact pass tells whether it overflows
            pair = None
        if pair is not None:
            return pair
    if real:
        return _exact_real_pair(f, ints, e, zr, zi)
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


def _exact_real_pair(f, ints, e, zr, zi):
    # The same pair for real coefficients ``ints`` (over 2^f) from the
    # second-order recurrence (Knuth, TAOCP 4.6.4), which divides A by the
    # real quadratic x^2 - r x + s with r = 2 Re z', s = |z'|^2, zero at z':
    # with b_0 = 1 and b_k = a_k + r b_(k-1) - s b_(k-2),
    # A(z') = b_n - b_(n-1) conj(z').  The quotient Q is sum b_k x^(n-2-k);
    # with c_k = b_k + r c_(k-1) - s c_(k-2), Q(z') = c_(n-2) - c_(n-3)
    # conj(z'), and A'(z') = b_(n-1) + 2 i Im z' Q(z'), 2 i Im z' being the
    # quadratic's derivative at z'.  b and c before index 0 are 0, and
    # B_k = 2^(f+ke) b_k and C_k = 2^(f+ke) c_k are integers, with
    # 2^e r = 2 zr and 2^(2e) s = zr^2 + zi^2.  Each step makes C_(k-2) from
    # B_(k-2) and then B_k: 4 products where the complex loop makes 8.
    twice_re, norm = 2 * zr, zr * zr + zi * zi
    b1, b2, c1, c2 = 1 << f, 0, 0, 0
    shift = 0
    for c in ints:
        shift += e
        c1, c2 = b2 + twice_re * c1 - norm * c2, c1
        b1, b2 = (c << shift) + twice_re * b1 - norm * b2, b1
    value_scale, deriv_scale = 1 << (f + shift), 1 << (f + shift - e)
    return (complex((b1 - zr * b2) / value_scale, zi * b2 / value_scale),
            complex((b2 - 2 * zi * zi * c2) / deriv_scale,
                    2 * zi * (c1 - zr * c2) / deriv_scale))


def _fixed_grid_pair(f, ints, real, sizes, e, zr, zi):
    # The same pair from a pass on the grid 2^-g, or None when an error
    # interval does not round to one binary64 number.  Both loops keep
    # their values as integers in units of 2^-g and floor every product;
    # coefficient bits below 2^-(g+e) are floored too.  With
    # rho = max(1, |z'|) and s = n rho^(n-1), each carries a bound on the
    # error of every part of A (bv) and of A' (bd) in those units.  These are exact while
    # |z'| (1 + 2^-40) <= 1; above, that factor covers the rounding of
    # |z'|, of the power and of the products.
    r = ldexp(hypot(zr, zi), -e)
    size = 1.0
    for a in sizes:  # at least 2^-0.5 Sum |a_k| |z'|^(n-k)
        size = size * r + a
    g = max(0, _FIXED_GRID_BITS - frexp(size)[1])
    t = g + e - f
    cs = [c << t for c in ints] if t >= 0 else [c >> -t for c in ints]
    n = len(sizes)
    s = n * max(1.0, r * (1 + 2.0 ** -40)) ** (n - 1)
    if real:
        # The second-order recurrence of `_exact_real_pair`.  A B step's
        # floors and coefficient truncation add delta_k, |delta_k| < 2: the
        # B values are exactly those of the coefficients a_k + delta_k 2^-g.
        # A C step's floors add gamma_k, |gamma_k| < 1, to the quotient's
        # coefficient b_k.  So A errs by Sum delta_k z'^(n-k) plus the last
        # floor, below 2s + 1 per part, and A' by Sum delta_k (n-k)
        # z'^(n-k-1) (below (n-1)s) plus 2 i Im z' Sum gamma_k z'^(n-2-k)
        # (below 2s) plus the last floors (below 2|Im z'| + 1 <= s + 1 for
        # n >= 2): below (n+2)s + 1.  Im A = Im z' b_(n-1) and
        # Im A' = 2 Im z' Re Q are left unfloored, over 2^-(g+e), so they
        # keep their bits where |Im z'| is far below the terms (as near a
        # real root), and the other parts are moved to that scale.  Their
        # second bound follows the recurrence's response to a unit error m
        # steps back, W_m = Sum_t z'^t conj(z')^(m-t), |W_m| <= (m+1)|z'|^m:
        # b_j errs by below Sum_m 2 (m+1) rho^m <= j(j+1) rho^(j-1), so
        # Im A by below |Im z'| (n-1)s, and Re Q by below
        # Sum_j (j(j+1) rho^(j-1) + 1) rho^(n-2-j) + 1 <= n^2 s + 1.  Each
        # takes the smaller bound; at a real z' both are exactly 0.
        twice_re, norm = 2 * zr, zr * zr + zi * zi
        b1, b2, c1, c2 = 1 << g, 0, 0, 0
        for c in cs:
            c1, c2 = ((twice_re * c1 - (norm * c2 >> e)) >> e) + b2, c1
            b1, b2 = (twice_re * b1 - (norm * b2 >> e) + c) >> e, b1
        qr, qi = c1 - (zr * c2 >> e), zi * c2 >> e
        vr, vi = b1 - (zr * b2 >> e) << e, zi * b2
        dr, di = b2 - (2 * zi * qi >> e) << e, 2 * zi * qr
        bv, bd = int(2 * s) + 2 << e, int((n + 2) * s) + 2 << e
        bvi = min(bv, abs(zi) * (int((n - 1) * s) + 1))
        bdi = min(bd, 2 * abs(zi) * (int(n * n * s) + 2))
        scale = 1 << g + e
    else:
        # Horner over Gaussian integers: each step's floors add an error
        # below 2 per part (one for the product, one for a truncated
        # coefficient), so below 3 in modulus, and every earlier error grows
        # by |z'| per step: A's error is below 3s and A''s, whose steps add
        # one floor and A's error, below s (2 + 3s).
        vr, vi, dr, di = 1 << g, 0, 0, 0
        for cr, ci in zip(cs[0::2], cs[1::2]):
            dr, di = ((dr * zr - di * zi) >> e) + vr, ((dr * zi + di * zr) >> e) + vi
            vr, vi = (vr * zr - vi * zi + cr) >> e, (vr * zi + vi * zr + ci) >> e
        bv = bvi = int(3 * s) + 1
        bd = bdi = int(s * (2 + 3 * s)) + 1
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
