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
#: _FIXED_GRID_WORK, where it costs less than the exact pass.  For A(x) =
#: P(x^g) it runs on P at z'^g, in n/g steps.
_FIXED_GRID_BITS = 256
_FIXED_GRID_WORK = 3 * 2 ** 13

_bits = Struct("<d").pack

#: (polynomial, F, ints, real, reduced, recent, older) for the polynomial
#: `eval_with_derivative` saw last.  ``real`` says whether every Im a_k is
#: 0; ``ints`` is then [2^F a_1, ..., 2^F a_n], else [Re 2^F a_1,
#: Im 2^F a_1, ..., Im 2^F a_n], with the least F >= 0 that makes these
#: integers.  ``reduced`` is empty until the polynomial's first fixed-grid
#: pass fills it, in one step, with what that pass runs on: g, the gcd of n
#: and of every k with a_k != 0 (A(x) = P(x^g)), the entries of ``ints``
#: for P's coefficients a_g, a_(2g), ..., a_n, and their sizes
#: max(|Re a_k|, |Im a_k|); a polynomial that never takes that pass (low
#: degree, |z| ~ 1) never builds it.  A solve evaluates one polynomial many
#: times in a row, so this one entry saves converting the coefficients on
#: each call; a cache on every polynomial would cost several hundred bytes
#: each.  The two dicts map a point z to its (A, A') pair: a solve
#: evaluates each new iterate for its residual and the next sweep evaluates
#: it again, and such a repeat costs a dict probe instead of a Horner pass.
#: A pair is added to ``recent``; when ``recent`` holds 2n pairs the entry
#: is replaced by one whose ``recent`` is empty and whose ``older`` is the
#: full one, so at most 4n pairs are kept and each survives at least 2n
#: further new points (a solve reuses a point within 2m <= 2n of them).
#: The tuple is replaced, never changed, so concurrent callers see a whole
#: one; its dicts are only read and added to, never iterated, and a pair
#: depends on the polynomial and z alone, so a lost or duplicated addition
#: costs a Horner pass at most; ``reduced`` goes from empty to whole in one
#: slice assignment, the same by every caller.  `_EMPTY_ENTRY` holds no
#: polynomial, so no call uses or fills its list.
_EMPTY_ENTRY = (None, 0, [], False, [], {}, {})
_last_scaled = _EMPTY_ENTRY


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
    e = max([d for _, d in ratios]).bit_length() - 1  # each d is a power of 2
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
    real value, keep a finer scale where that gives the smaller bound, so
    points near the real axis decide too).  Each part is then decided on
    its own scale.  Where its error interval, widened by one unit at the
    low end, lies in one 2^-55 slice of a normal binade, no rounding
    boundary falls inside, and the slice's 55-bit index gives the rounded
    number without a division; otherwise the part is rounded at both ends
    of the interval.  The pair is returned only if every part gives one
    binary64 number, sign of zero included: rounding is monotone, so that
    is the exact pass's number.  Otherwise the exact pass runs: where a
    part cancels below about 2^-200 of its terms (near a multiple root), is
    exactly 0 (as at an iterate on a root), or lies below the grid
    altogether (A' at tiny z where a_(n-1) = 0 and g = 1, g as below; every
    call there pays both passes).  On the seed-1501 benchmark pools that is
    99 of the 8,538 fixed-grid passes of `wide_total` and 43 of the 742 of
    `wide_quadratic` (``tools/pool_ledger.py``).  So every result has the
    exact pass's bits.

    A polynomial in x^g takes fewer steps.  With g the gcd of n and of
    every k with a_k != 0 (found at the polynomial's first fixed-grid
    pass), A(x) = P(x^g), and the fixed-grid pass runs on P at W = z'^g in
    n/g steps, and A'(z') = g U P'(W).  U = z'^(g-1) and W = z' U are
    formed exactly as Gaussian integers, so their parts have about g E
    bits (343 to 1404 on the seed-1501 `wide_total` pool), but the whole
    pass runs at the width of the loop's values, h bits (derived per pass
    from the grid, n, max(1, |W|) and the |a_k|: 267 to 309 on that
    pool).  For real coefficients the loop takes 2 Re W and |W|^2 floored
    to 2^-h once per pass wherever 2 g E exceeds h; the complex loop
    multiplies by W's parts.  What follows the loop takes W, and A'(z')
    takes U, each floored to a common 2^-p that keeps h + 1 bits of the
    smaller part (so that where z'^g nears the real axis, as at the ring
    polynomials' converged iterates, Im W keeps its own bits), and each
    bound carries what these floors drop: each part of A'(z') errs by at
    most g (|Re U| b + |Im U| b'), b and b' the bounds of the parts of
    P'(W) it multiplies, plus g times one unit of U's floor times the size
    of each such part of P'(W) whose factor the floor moved.  The
    rounding test is the same, and the exact pass still takes n steps at
    z'.  At tiny z the substitution decides where those n steps cannot:
    A' of a polynomial with a_(n-1) = 0 lies below the grid at z', but
    P'(W) need not lie below the grid at W.  The benchmark's ring
    polynomials, products of (x^c - s R^c)^alpha, all take it.

    Per call at a new point, in us, as two-stage / exact pass alone at
    |z| ~ 1, |z| ~ 1e-100 and subnormal z (one figure where only the exact
    pass runs); dense rows have random coefficients in the unit square,
    "in x^g, n" rows random ones at the multiples of g only, and the
    points are random in the unit square times 1, 1e-100 and 2^-1030
    (median of 9 interleaved runs of 60 points on a shared 2-vCPU box,
    CPython 3.11.7; single runs scatter widely):

    ========================  ==========  ============  ===========
    polynomial, coefficients  |z| ~ 1     |z| ~ 1e-100  subnormal z
    ========================  ==========  ============  ===========
    dense 6, real             7           11            16 / 22
    dense 6, complex          16          26            18 / 28
    dense 24, real            28 / 30     22 / 101      25 / 200
    dense 24, complex         38 / 45     40 / 142      45 / 350
    dense 48, real            48 / 68     32 / 324      35 / 659
    dense 48, complex         64 / 103    73 / 524      125 / 1799
    dense 96, real            84 / 207    77 / 1842     56 / 2384
    dense 96, complex         117 / 303   134 / 1821    146 / 4288
    in x^12, 60, real         24 / 87     25 / 388      29 / 806
    in x^12, 60, complex      29 / 142    34 / 589      36 / 1389
    in x^2, 96, real          56 / 189    29 / 1045     37 / 2539
    in x^2, 96, complex       89 / 333    77 / 1478     77 / 3672
    x^24 - 1/2                20 / 23     31 / 30       45 / 40
    x^96 - 1/2                80 / 182    102 / 198     118 / 180
    ========================  ==========  ============  ===========

    No row falls back.  Where W and U have more bits than the loop keeps
    (g E above h), the pass multiplies them floored: x^96 - 1/2, whose one
    step at z'^96 and A'(z') = 96 U P'(W) took 122, 148 and 157 us in the
    same runs with U and W at their full 96 E bits, now runs at about half
    the exact pass's time at |z| ~ 1 and |z| ~ 1e-100, and x^24 - 1/2
    about as fast as it.

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
    # when a part is beyond binary64.  See `eval_with_derivative`.  With z
    # = (zr + i zi) / 2^e and M = max(|zr|, |zi|), the grid is 2^-(e + 110
    # - L), L the bit length of M, so a part has bits below it only where
    # L > 110 (and e > 0); for e = 0 z is an integer, a multiple of the
    # grid, and rounding it to z' changes nothing.
    poly, f, ints, real, reduced, _, _ = scaled
    zr, dr = x.as_integer_ratio()
    zi, di = y.as_integer_ratio()
    if dr < di:
        zr, dr = zr << di.bit_length() - dr.bit_length(), di
    else:
        zi <<= dr.bit_length() - di.bit_length()
    e = dr.bit_length() - 1
    if zr.bit_length() > _GRID_BITS or zi.bit_length() > _GRID_BITS:  # evaluate at z'
        grid = max(0, _GRID_BITS - frexp(max(abs(x), abs(y)))[1])
        e, (zr, zi) = dyadic_integers(
            [ldexp(round(ldexp(p, grid)), -grid) for p in (x, y)])
    coeffs = poly.low_coefficients
    n = len(coeffs)
    if n ** 2 * e >= _FIXED_GRID_WORK:
        if not reduced:  # filled at the polynomial's first such pass
            g = math.gcd(n, *[k for k, c in enumerate(coeffs, start=1) if c])
            reduced[:] = (
                g, ints[g - 1::g] if real else [
                    p for k in range(2 * g - 2, 2 * n, 2 * g) for p in ints[k:k + 2]],
                [max(abs(c.real), abs(c.imag)) for c in coeffs[g - 1::g]])
        g, p_ints, p_sizes = reduced
        try:
            pair = _fixed_grid_pair(f, p_ints, real, p_sizes, e, zr, zi, g)
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


def _fixed_grid_pair(f, ints, real, sizes, e, zr, zi, step):
    # The same pair from a pass on the grid 2^-g, or None when an error
    # interval does not round to one binary64 number.  A(x) = P(x^step),
    # ``ints`` and ``sizes`` holding P's coefficients a_step, a_(2 step),
    # ..., a_n, and A'(x) = step x^(step-1) P'(x^step): the pass runs on P
    # at W = z'^step, formed exactly like U = z'^(step-1) (over 2^(step e)
    # and 2^((step-1) e)), and multiplies P'(W) by step U at the end.  Until
    # then A, n, z', e and a_k stand for P, its degree, W, step e and P's
    # coefficients; with step 1 they are A's own.
    # Both loops keep their values as integers in units of 2^-g and floor
    # every product; coefficient bits below the loop's shift are floored
    # too.  With rho = max(1, |z'|) and s = n rho^(n-1), each carries a
    # bound on the error of every part of A (bv) and of A' (bd) in those
    # units.  These are exact while |z'| (1 + step 2^-40) <= 1; above, that
    # factor covers the rounding of |z'|: r below errs by about
    # (3 step + 1) 2^-53 <= step 2^-50 (hypot and the two conversions,
    # raised to the power step), and the rest of the factor covers the
    # (n-1)th power and the products.  With a_0 = 1 and
    # T = Sum |a_k| rho^(n-k) (``top``, at least rho^n), h bounds the width
    # of the real loop's values (see there); what follows the loops takes
    # z' and U floored by `_floored` to about h bits, so that its products
    # multiply integers of about the loops' width, not of step e bits.
    # Each part is then rounded on its own scale by `_rounded`.
    r = ldexp(hypot(zr, zi), -e) ** step
    n = len(sizes)
    if step > 1:
        ur, ui = _gaussian_power(zr, zi, step - 1)
        zr, zi, e, ue = ur * zr - ui * zi, ur * zi + ui * zr, step * e, (step - 1) * e
    rho = r * (1 + step * 2.0 ** -40)
    if rho < 1.0:
        rho = 1.0
    size = top = 1.0
    for a in sizes:  # size: at least 2^-0.5 Sum |a_k| |z'|^(n-k)
        size, top = size * r + a, top * rho + a
    g = _FIXED_GRID_BITS - frexp(size)[1]
    if g < 0:
        g = 0
    s = n * rho ** (n - 1)
    h = g + int((n + 1) ** 3 * (2 * n + 5) * top).bit_length() + 2
    if real:
        # The second-order recurrence of `_exact_real_pair` in units of
        # 2^-g: b1, b2 hold B_k = 2^g b_k, and c1, c2 C_k = 2^g c_k.  Its
        # response to a unit error m steps back is
        # K_m = Sum_t z'^t conj(z')^(m-t), |K_m| <= (m+1) rho^m.  With the
        # step errors below (|delta_k| < 2, |gamma_k| < 2), every |B_k|
        # and |C_k| is below 2^g (n+1)^3 (2n+5) T, so below 2^(h-1) - 1 (by
        # induction on the step; h keeps a bit for the rounding of T).
        # 2 Re z' and |z'|^2 (``twice_re``, ``norm``) are taken on 2^-k,
        # k = min(2e, h): exact where 2e <= h, else floored, so that each
        # step multiplies h-bit integers and makes one floor per product
        # sum; a product by a floored one drops less than
        # |B_k| 2^-h < 1/2 unit.
        # A B step's floors, those drops and the coefficient truncation add
        # delta_k, |delta_k| < 2: the B values are exactly those of the
        # coefficients a_k + delta_k 2^-g.  A C step's add gamma_k,
        # |gamma_k| < 2, to the quotient's coefficient b_k.
        # After the loop z' is w / 2^p floored, p >= h + 1 where it floors
        # (else w is exact), so a product of a part of w by a B or C value
        # drops below 2^(h-1-p) <= 1/4 unit more, and Re Q = c_(n-2) -
        # Re z' c_(n-3) and Im Q = Im z' c_(n-3) (``qr``, ``qi``) err by
        # below 5/4.  So A errs by Sum delta_k z'^(n-k) (below 2s) plus a
        # drop and the last floor: below 2s + 5/4 per part.  A' =
        # b_(n-1) + 2 i Im z' Q errs by Sum delta_k (n-k) z'^(n-k-1) (below
        # (n-1)s) plus 2 i Im z' Sum gamma_k z'^(n-2-k) (below
        # 2 rho 2 (n-1) rho^(n-2) < 4s) plus what follows the loop.  In
        # Re A' that is 2 |Im z'| 5/4 for Im Q, the drop of its product by
        # w_i (below 2 |Im Q| 2^-p < |Im z'|/2 + 2^(1-h)) and the last
        # floor; in Im A' it is 2 |Im z'| 5/4 for Re Q, the drop of its
        # product (below (1 + |Re z'|)/2 + 2^(1-h) <= rho + 2^(1-h)) and
        # the last floor.  With 2 |Im z'| <= 2 rho <= s for n >= 2 (for
        # n = 1 there is no C value and no error after the loop), both
        # parts of A' err by below (n + 4.75)s + 1 + 2^(1-h) <
        # (n + 5)s + 1.  Re A and Re A' are kept on 2^-g.
        # Im A = Im z' b_(n-1) and Im A' = 2 Im z' Re Q are formed as
        # products by w_i, not floored, over 2^-(g+p); w_i keeps h + 1 bits
        # or more (or all of Im z'), so they keep their bits where |Im z'|
        # is far below the terms (as near a real root, or where z'^step
        # nears the real axis).  Their second bound follows K_m: b_j errs by
        # below Sum_m 2 (m+1) rho^m <= j(j+1) rho^(j-1), so b_(n-1) by below
        # (n-1)s, and Re Q by below
        # Sum_j (j(j+1) rho^(j-1) + 2) rho^(n-2-j) + 5/4 <= n^2 s + 5/4.
        # With |Im z'| 2^p <= |w_i| + 1 and the floor of w_i erring by under
        # a unit, Im A errs by below (|w_i| + 1)(n-1)s + |b_(n-1)| and Im A'
        # by below 2 (|w_i| + 1)(n^2 s + 5/4) + 2 |Re Q| units of 2^-(g+p).
        # Where w is floored a nonzero w_i is at least 2^h, while |b_(n-1)|,
        # (n-1)s and n^2 s + 5/4 are below 2^(h-1) and |Re Q| below
        # 2^(h-1) (2 + rho), so these are below |w_i| ((n-1)s + 1) and
        # 2 |w_i| ((n^2 + 1/2)s + 11/4); where it is not, the floor's terms
        # drop out; where w_i = 0 both parts are exactly 0.  Where that
        # bound is the smaller they stay there; otherwise they are floored
        # to 2^-g, with the first bound (that floor is one of the drops
        # counted there).
        k = 2 * e if 2 * e < h else h
        twice_re = zr << k - e + 1 if k >= e else zr >> e - k - 1
        norm = zr * zr + zi * zi >> 2 * e - k
        t = g + k - f
        cs = [c << t for c in ints] if t >= 0 else [c >> -t for c in ints]
        b1, b2, c1, c2 = 1 << g, 0, 0, 0
        for c in cs:
            c1, c2 = ((twice_re * c1 - norm * c2) >> k) + b2, c1
            b1, b2 = (twice_re * b1 - norm * b2 + c) >> k, b1
        wr, wi, p = _floored(zr, zi, e, h)
        twice_wi = 2 * wi
        qr, qi = c1 - (wr * c2 >> p), wi * c2 >> p
        vr, dr = b1 - (wr * b2 >> p), b2 - (twice_wi * qi >> p)
        bv, bd = int(2 * s) + 3, int((n + 5) * s) + 2
        vi, bvi, kvi = wi * b2, abs(wi) * (int((n - 1) * s) + 2), g + p
        if bvi >= bv << p:
            vi, bvi, kvi = vi >> p, bv, g
        di, bdi, kdi = twice_wi * qr, abs(twice_wi) * (int((n * n + 0.5) * s) + 4), g + p
        if bdi >= bd << p:
            di, bdi, kdi = di >> p, bd, g
    else:
        # Horner over Gaussian integers: each step's floors add an error
        # below 2 per part (one for the product, one for a truncated
        # coefficient), so below 3 in modulus, and every earlier error grows
        # by |z'| per step: A's error is below 3s and A''s, whose steps add
        # one floor and A's error, below s (2 + 3s).
        t = g + e - f
        cs = [c << t for c in ints] if t >= 0 else [c >> -t for c in ints]
        vr, vi, dr, di = 1 << g, 0, 0, 0
        for cr, ci in zip(cs[0::2], cs[1::2]):
            dr, di = ((dr * zr - di * zi) >> e) + vr, ((dr * zi + di * zr) >> e) + vi
            vr, vi = (vr * zr - vi * zi + cr) >> e, (vr * zi + vi * zr + ci) >> e
        bv = bvi = int(3 * s) + 1
        bd = bdi = int(s * (2 + 3 * s)) + 1
        kvi = kdi = g
    kd = g
    if step > 1:
        # A'(z') = step U P'(W), U = u / 2^p floored by `_floored`: a part
        # of u errs by under one unit where it floors (p < (step-1) e) and
        # the part is not 0, else not at all.  With d_r (over 2^-g) and d_i
        # (over 2^-kdi) the parts of P'(W), and b, b' their bounds,
        # |P'_r| 2^g <= |d_r| + b, so U_r P'_r errs by at most |u_r| b,
        # plus b + |d_r| where u_r errs; the other three products alike.
        # The parts are formed over 2^-(kdi+p).
        ur, ui, p = _floored(ur, ui, ue, h)
        t = kdi - g
        xr, xi = (bd + abs(dr), bdi + abs(di)) if p < ue else (0, 0)
        aur, aui = abs(ur), abs(ui)
        dr, di, bd, bdi = (
            step * ((ur * dr << t) - ui * di), step * (ur * di + (ui * dr << t)),
            step * ((aur * bd + (ur and xr) << t) + aui * bdi + (ui and xi)),
            step * (aur * bdi + (ur and xi) + (aui * bd + (ui and xr) << t)))
        kd = kdi = kdi + p
    parts = [_rounded(vr, bv, g), _rounded(vi, bvi, kvi),
             _rounded(dr, bd, kd), _rounded(di, bdi, kdi)]
    if None in parts:
        return None
    return complex(parts[0], parts[1]), complex(parts[2], parts[3])


def _rounded(v, b, k):
    # The binary64 number nearest to every x in [v - b, v + b] 2^-k, or None
    # when the two ends round apart; raises OverflowError beyond binary64.
    # Let 2^(L-1) <= |v| + b < 2^L.  Where that binade is normal and
    # [|v| - b - 1, |v| + b] lies in one bucket of width 2^(L-55), no
    # rounding boundary (a midpoint, an odd multiple of 2^(L-54), so a
    # bucket's start) lies in [|v| - b, |v| + b], and every x there rounds
    # to the 53-bit number that the bucket's 55-bit index q gives:
    # (q + 2) >> 2, times 2^(L-53).
    # The -1 keeps |v| - b off the bucket's start, where a tie would round
    # to even, and shift - k >= -1076 is 2^(L-1-k) >= 2^-1022.  Otherwise
    # the two ends are divided out and compared, bit for bit.
    m = abs(v)
    top = m + b
    shift = top.bit_length() - 55
    if shift >= 0 and shift - k >= -1076 and (m - b - 1) >> shift == (q := top >> shift):
        x = ldexp(q + 2 >> 2, shift + 2 - k)
        return -x if v < 0 else x
    scale = 1 << k
    low = (v - b) / scale
    return low if _bits(low) == _bits((v + b) / scale) else None


def _floored(xr, xi, e, h):
    # (xr + i xi) / 2^e as (wr + i wi) / 2^p, each part floored to 2^-p:
    # to 2^-(h+1), or finer where that keeps h + 1 bits of the smaller
    # nonzero part (so a part far below the other keeps its bits); p = e
    # where that floors nothing.
    lr, li = xr.bit_length(), xi.bit_length()
    small = li if 0 < li < lr or not lr else lr
    shift = (small if small < e else e) - h - 1
    if shift <= 0:
        return xr, xi, e
    return xr >> shift, xi >> shift, e - shift


def _gaussian_power(xr, xi, k):
    # (xr + i xi)^k over the Gaussian integers, for k >= 1, by binary
    # powering; a square takes two products, (x + y)(x - y) and 2xy.
    while not k & 1:
        xr, xi, k = (xr + xi) * (xr - xi), xr * xi << 1, k >> 1
    pr, pi, k = xr, xi, k >> 1
    while k:
        xr, xi = (xr + xi) * (xr - xi), xr * xi << 1
        if k & 1:
            pr, pi = pr * xr - pi * xi, pr * xi + pi * xr
        k >>= 1
    return pr, pi


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
