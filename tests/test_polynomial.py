import cmath
import contextlib
import math
import pickle
import random
import struct
from collections import Counter
from fractions import Fraction
from math import ldexp

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from multiroots import (MonicPolynomial, NonFiniteError, RootSystem,
                        eval_with_derivative, poly_from_roots)
from multiroots import polynomial
from multiroots.polynomial import integer_power

# Expansion of (x+2)^2 (x-1) (x-3)^3; every coefficient is an exact
# integer, so evaluation at the integer roots must be exact as well.
SEXTIC = MonicPolynomial((-6, 0, 50, -45, -108, 108))


class TestMonicPolynomial:
    def test_degree_counts_trailing_coefficients(self):
        assert MonicPolynomial((0, 0)).degree == 2
        assert SEXTIC.degree == 6

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            MonicPolynomial(())

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ValueError):
            MonicPolynomial((1.0, float("nan")))
        with pytest.raises(ValueError):
            MonicPolynomial((complex(float("inf"), 0), 0))

    def test_coefficients_coerced_to_complex(self):
        poly = MonicPolynomial([1, 2.5])
        assert poly.low_coefficients == (1 + 0j, 2.5 + 0j)


class TestEvalWithDerivative:
    def test_monomial_square(self):
        # x^2 at 3 -> value 9, derivative 6
        poly = MonicPolynomial((0, 0))
        assert eval_with_derivative(poly, 3.0) == (9 + 0j, 6 + 0j)

    def test_triple_root_annihilates_value_and_derivative(self):
        value, deriv = eval_with_derivative(SEXTIC, 3.0)
        assert value == 0
        assert deriv == 0

    def test_simple_root_keeps_nonzero_derivative(self):
        value, deriv = eval_with_derivative(SEXTIC, 1.0)
        assert value == 0
        assert deriv != 0
        # derivative of the product rule at the simple root:
        # (1+2)^2 * (1-3)^3 = 9 * (-8) = -72
        assert deriv == pytest.approx(-72.0)

    def test_complex_argument(self):
        poly = MonicPolynomial((0, 1))  # x^2 + 1
        value, deriv = eval_with_derivative(poly, 1j)
        assert value == 0
        assert deriv == 2j

    def test_overflow_raises(self):
        poly = MonicPolynomial((0, 0, 0, 0, 0, 0))  # x^6
        with pytest.raises(NonFiniteError):
            eval_with_derivative(poly, 1e100)

    def test_non_finite_point_raises(self):
        with pytest.raises(NonFiniteError):
            eval_with_derivative(SEXTIC, complex(float("nan"), 0))

    def test_matches_numpy_polyval_on_random_polynomials(self):
        rng = np.random.default_rng(90)
        for _ in range(50):
            degree = int(rng.integers(1, 11))
            low = [complex(*rng.uniform(-10, 10, 2)) for _ in range(degree)]
            poly = MonicPolynomial(low)
            z = complex(*rng.uniform(-2, 2, 2))
            value, deriv = eval_with_derivative(poly, z)
            full = np.array([1.0 + 0j] + low)
            assert value == pytest.approx(complex(np.polyval(full, z)), rel=1e-12)
            assert deriv == pytest.approx(
                complex(np.polyval(np.polyder(full), z)), rel=1e-12
            )


class TestIntegerPower:
    def test_cube(self):
        assert integer_power(2 + 0j, 3) == 8 + 0j

    def test_zero_exponent_is_one_even_for_zero_base(self):
        assert integer_power(0j, 0) == 1 + 0j

    def test_hand_expanded_square(self):
        assert integer_power(1 + 1j, 2) == 2j

    def test_matches_repeated_multiplication(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            base = complex(*rng.uniform(-2, 2, 2))
            exp = int(rng.integers(0, 9))
            expected = 1 + 0j
            for _ in range(exp):
                expected *= base
            assert integer_power(base, exp) == pytest.approx(expected, rel=1e-13)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            integer_power(2 + 0j, -1)

    def test_overflow_raises(self):
        with pytest.raises(NonFiniteError):
            integer_power(complex(1e200, 0), 4)


def test_built_polynomials_vanish_at_roots_when_coefficients_moderate():
    # absolute residual <= 1e-10 whenever coefficients stay within 1e3
    from multiroots import poly_from_roots
    from conftest import continuous_system

    rng = np.random.default_rng(55)
    kept = 0
    while kept < 150:
        rs = continuous_system(rng, box=2.0, min_separation=1.0)
        poly = poly_from_roots(rs)
        if max(abs(c) for c in poly.low_coefficients) > 1e3:
            continue
        kept += 1
        for root in rs.roots:
            value, _ = eval_with_derivative(poly, root)
            assert abs(value) <= 1e-10


def test_derivative_matches_central_difference():
    # relative agreement <= 1e-6 with h = 1e-6 * max(1, |z|)
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 200:
        degree = int(rng.integers(1, 11))
        low = [complex(*rng.uniform(-10, 10, 2)) for _ in range(degree)]
        poly = MonicPolynomial(low)
        z = complex(*rng.uniform(-2, 2, 2))
        _, deriv = eval_with_derivative(poly, z)
        if abs(deriv) < 1e-3:
            continue  # difference quotient is meaningless near a critical point
        h = 1e-6 * max(1.0, abs(z))
        vp, _ = eval_with_derivative(poly, z + h)
        vm, _ = eval_with_derivative(poly, z - h)
        fd = (vp - vm) / (2 * h)
        assert abs(fd - deriv) / abs(deriv) <= 1e-6
        checked += 1


# The exact oracle.  Fraction arithmetic on the binary64 inputs gives A(z)
# and A'(z) exactly; float() of a Fraction rounds each part once to nearest.

def _horner(coefficients, wr, wi):
    vr = vi = Fraction(0)
    for cr, ci in coefficients:
        vr, vi = vr * wr - vi * wi + cr, vr * wi + vi * wr + ci
    return vr, vi


def exact_eval(poly, z):
    """A(z) and A'(z) as exact (real, imaginary) Fraction pairs.

    With q the larger denominator of z's parts, w = q z is a Gaussian
    integer and B(w) = q^n A(w / q) has the coefficients a_k q^k, so
    A(z) = B(w) / q^n and A'(z) = B'(w) / q^(n-1).  The value is B's Horner
    pass and the derivative the Horner pass of B's derivative coefficients
    (n - k) a_k q^k.  (A Horner pass at z itself gives the same numbers, but
    its sums of fractions with huge denominators are several times slower.)
    """
    zr, zi = Fraction(z.real), Fraction(z.imag)
    q = max(zr.denominator, zi.denominator)
    wr, wi = int(zr * q), int(zi * q)
    n = poly.degree
    powers = [1]  # q^0 .. q^n
    for _ in range(n):
        powers.append(powers[-1] * q)
    b = [(Fraction(1), Fraction(0))] + [
        (Fraction(a.real) * qk, Fraction(a.imag) * qk)
        for a, qk in zip(poly.low_coefficients, powers[1:])]
    vr, vi = _horner(b, wr, wi)
    dr, di = _horner([((n - k) * br, (n - k) * bi)
                      for k, (br, bi) in enumerate(b[:-1])], wr, wi)
    return (vr / powers[n], vi / powers[n]), (dr / powers[n - 1], di / powers[n - 1])


def oracle_eval(poly, z):
    """`exact_eval` with each part rounded once to binary64."""
    (vr, vi), (dr, di) = exact_eval(poly, complex(z))
    try:
        return complex(float(vr), float(vi)), complex(float(dr), float(di))
    except OverflowError:
        raise NonFiniteError("exact value overflows binary64") from None


def outcome(evaluate, poly, z):
    """The bits of (value, derivative), or "overflow" when evaluation raises."""
    try:
        v, d = evaluate(poly, z)
    except NonFiniteError:
        return "overflow"
    return struct.pack("<4d", v.real, v.imag, d.real, d.imag)


def assert_exact(poly, z, at=None):
    """eval_with_derivative at z has the oracle's bits at ``at`` (default z)."""
    got = outcome(eval_with_derivative, poly, z)
    assert got == outcome(oracle_eval, poly, z if at is None else at), (poly, z)
    return got


class TestMatchesExactOracle:
    SCALES = (2.0 ** -60, 1.0, 2.0 ** 60)

    @pytest.mark.parametrize("degree", range(1, 97))
    def test_random_cases_across_scales(self, degree):
        rng = random.Random(degree)
        finite = 0
        for coeff_scale in self.SCALES:
            for z_scale in self.SCALES:
                for _ in range(3):
                    poly = MonicPolynomial([
                        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * coeff_scale
                        for _ in range(degree)
                    ])
                    z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) * z_scale
                    finite += assert_exact(poly, z) != "overflow"
        assert finite >= 18  # only |z| ~ 2^60 can overflow, at high degree

    @pytest.mark.parametrize("z", [
        2.5, -0.0, complex(0.75, -0.0), complex(-0.0, 1.25),
        complex(-0.0, -0.0), complex(-1.5, 0.0), complex(3.0, -0.0),
    ])
    def test_real_points_and_signed_zeros(self, z):
        # An exactly zero part comes back as +0.0, as from the oracle.
        polys = (
            SEXTIC,
            MonicPolynomial((0, 0, 0, 0, 0)),
            MonicPolynomial((complex(-0.0, -0.0), complex(0.0, -0.0), -0.0)),
            MonicPolynomial((complex(0.5, -1.25), complex(-2.0, -0.0), complex(-0.0, 3.5))),
        )
        for poly in polys:
            assert assert_exact(poly, z) != "overflow"

    @pytest.mark.parametrize("z, grid_point", [
        # Below 2^-110 |z|, a part is rounded to the grid 2^min(0, e - 110).
        (complex(1.3, 1e-300), complex(1.3, 0.0)),
        (complex(5e-324, 0.7), complex(0.0, 0.7)),
        (complex(2.0 ** 500, 0.75), complex(2.0 ** 500, 1.0)),
        (complex(1.0, 2.0 ** -60 + 2.0 ** -112), complex(1.0, 2.0 ** -60)),
        # ties go to the even multiple of the grid 2^-109, down and up
        (complex(1.0, 2.0 ** -60 + 2.0 ** -110), complex(1.0, 2.0 ** -60)),
        (complex(-1.0, 2.0 ** -60 + 2.0 ** -109 + 2.0 ** -110),
         complex(-1.0, 2.0 ** -60 + 2.0 ** -108)),
        # on the grid already: evaluated at z itself
        (complex(1.0, 2.0 ** -100), complex(1.0, 2.0 ** -100)),
        (complex(2.0 ** -80, -3.0), complex(2.0 ** -80, -3.0)),
    ])
    def test_point_with_one_tiny_part_is_exact_at_the_grid_point(self, z,
                                                                 grid_point):
        assert abs(grid_point - z) <= 2.0 ** -110 * abs(z)
        polys = (
            MonicPolynomial((complex(0.5, -1.25), -2.0)),
            MonicPolynomial([complex(random.Random(k).uniform(-1, 1), 0.25 * k)
                             for k in range(12)]),
            SEXTIC,
        )
        finite = [assert_exact(poly, z, at=grid_point) != "overflow"
                  for poly in polys]
        assert finite[0]

    @pytest.mark.parametrize("poly, z, grid_point", [
        (MonicPolynomial((3.0,)), 2.0 ** 1000, 2.0 ** 1000),
        # the grid is 1 here, and 0.5 goes to the even multiple, 0
        (MonicPolynomial((complex(1.0, -2.0),)), complex(0.5, -(2.0 ** 997)),
         complex(0.0, -(2.0 ** 997))),
        (MonicPolynomial((-1.0,)), complex(2.0 ** 999, 2.0 ** 1000),
         complex(2.0 ** 999, 2.0 ** 1000)),
        (MonicPolynomial((2.0 ** 1010, 2.0 ** 1015)), complex(0.25, 0.5),
         complex(0.25, 0.5)),
        (MonicPolynomial((complex(2.0 ** 1000, -(2.0 ** 1005)), 1.0)), -0.75, -0.75),
        (MonicPolynomial((complex(2.0 ** 1000, -(2.0 ** 1001)), 0, 0)),
         complex(0.5, -0.25), complex(0.5, -0.25)),
        # z^2 - 2^1000 z at z = 2^1000: z^2 is beyond binary64, the value 0
        (MonicPolynomial((-(2.0 ** 1000), 0.0)), 2.0 ** 1000, 2.0 ** 1000),
    ])
    def test_values_near_the_top_of_the_range(self, poly, z, grid_point):
        assert assert_exact(poly, z, at=grid_point) != "overflow"

    def test_alternating_polynomials(self):
        # The integer form kept for the last polynomial is never used for
        # another one, equal or not.
        polys = (SEXTIC, MonicPolynomial((1.5, -0.25j, 3.0)), SEXTIC,
                 MonicPolynomial(SEXTIC.low_coefficients[:3]), SEXTIC)
        for poly in polys + polys[::-1]:
            assert_exact(poly, complex(1.25, -0.5))

    def test_near_overflow_raises_from_both(self):
        # z^2 = 1e308 and a_2 = 1.7e308 are finite; only their sum overflows.
        poly = MonicPolynomial((0.0, 1.7e308))
        with pytest.raises(NonFiniteError):
            eval_with_derivative(poly, 1e154)
        assert outcome(oracle_eval, poly, 1e154) == "overflow"

    @pytest.mark.parametrize("poly, z", [
        (MonicPolynomial((0, 2.0 ** 990, 0, 0, 5.0)), 2.0 ** 20),
        (MonicPolynomial((complex(0, 2.0 ** 985), 0, 1.0)), complex(-(2.0 ** 30), 3.0)),
    ])
    def test_product_overflow_partway_raises(self, poly, z):
        # The exact value is beyond binary64, so evaluation raises with the
        # usual message.
        with pytest.raises(NonFiniteError) as info:
            eval_with_derivative(poly, z)
        assert str(info.value) == (
            f"polynomial evaluation overflowed at z={complex(z)!r} "
            f"(degree {poly.degree})"
        )
        assert outcome(oracle_eval, poly, z) == "overflow"


# The point memo.  `eval_with_derivative` keeps the (A, A') pairs of recent
# points of the polynomial it evaluated last; these tests reset it to see a
# cold evaluation and count Horner passes through `_horner_pair`, the one
# function a call that misses the memo makes (its exact pass runs only when
# the fixed-grid pass is not used or cannot decide the rounding).

def reset_memo():
    polynomial._last_scaled = polynomial._EMPTY_ENTRY


#: The exact passes: `_exact_pair` for complex coefficients and
#: `_exact_real_pair` for real ones.
EXACT_PASSES = ("_exact_pair", "_exact_real_pair")


@contextlib.contextmanager
def counted_passes(*names, fixed_grid_everywhere=False):
    """Yield a list that gets one (name, args) entry per call of any of
    ``polynomial.<name>`` for the given names made inside (by default
    ``_horner_pair``: one per Horner pass); with ``fixed_grid_everywhere``,
    the fixed-grid pass is tried at every point."""
    passes = []
    saved = {name: getattr(polynomial, name) for name in names or ("_horner_pair",)}
    saved_work = polynomial._FIXED_GRID_WORK

    def counting(name):
        def counted(*args):
            passes.append((name, args))
            return saved[name](*args)
        return counted

    for name in saved:
        setattr(polynomial, name, counting(name))
    if fixed_grid_everywhere:
        polynomial._FIXED_GRID_WORK = 0
    try:
        yield passes
    finally:
        for name, function in saved.items():
            setattr(polynomial, name, function)
        polynomial._FIXED_GRID_WORK = saved_work


def kept_pairs():
    return sum(len(kept) for kept in polynomial._last_scaled[-2:])


def cold_outcome(poly, z):
    reset_memo()
    return outcome(eval_with_derivative, poly, z)


def equal_twin(z):
    """z with the sign of each zero part flipped: equal under ==, other bits."""
    flip = [math.copysign(0.0, -math.copysign(1.0, p)) if p == 0 else p
            for p in (z.real, z.imag)]
    return complex(*flip)


def either_sign(magnitudes):
    return st.builds(lambda p, negative: -p if negative else p,
                     magnitudes, st.booleans())


moderate_parts = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0]))
# tiny parts are rounded by the 2^-110 grid; large ones overflow at degree >= 2
point_parts = st.one_of(moderate_parts,
                        either_sign(st.floats(5e-324, 1e-200)),
                        either_sign(st.floats(1e100, 1.7e308)))
memo_points = st.builds(complex, point_parts, point_parts)
memo_polys = st.lists(st.builds(complex, moderate_parts, moderate_parts),
                      min_size=1, max_size=8).map(MonicPolynomial)


class TestPointMemo:
    @settings(max_examples=200, deadline=None)
    @given(poly=memo_polys, z=memo_points)
    @example(poly=SEXTIC, z=complex(1.3, 1e-300))
    @example(poly=SEXTIC, z=complex(-0.0, 0.0))
    @example(poly=SEXTIC, z=complex(2.0 ** 1000, -0.0))
    def test_hit_has_the_bits_of_a_cold_evaluation(self, poly, z):
        # The grid point of z (tiny parts dropped) first, so a grid-rounded
        # z follows an evaluation at the point it is rounded to; then z,
        # its signed-zero twin and z again, which hit the memo.
        grid_point = complex(*(p if abs(p) > 1e-200 else 0.0 for p in (z.real, z.imag)))
        sequence = [grid_point, z, equal_twin(z), z]
        reset_memo()
        with counted_passes() as passes:
            warm = [outcome(eval_with_derivative, poly, w) for w in sequence]
        cold = [cold_outcome(poly, w) for w in sequence]
        assert warm == cold
        # a pass for each call at a point no earlier call kept: an overflow
        # is never kept, so each call at such a point makes its own pass
        kept = []
        expected = 0
        for w, got in zip(sequence, warm):
            if w not in kept:
                expected += 1
                if got != "overflow":
                    kept.append(w)
        assert len(passes) == expected

    def test_overflowing_point_raises_on_every_call(self):
        poly = MonicPolynomial((0.0, 1.7e308))
        reset_memo()
        with counted_passes() as passes:
            for _ in range(3):
                with pytest.raises(NonFiniteError, match="overflowed"):
                    eval_with_derivative(poly, 1e154)
        assert len(passes) == 3
        assert kept_pairs() == 0

    @pytest.mark.parametrize("degree", [1, 3, 12])
    def test_bounded_to_four_n_pairs(self, degree):
        rng = random.Random(degree)
        poly = MonicPolynomial([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                for _ in range(degree)])
        points = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(10 * degree)]
        reset_memo()
        for k, z in enumerate(points, start=1):
            eval_with_derivative(poly, z)
            assert kept_pairs() <= 4 * degree
            assert kept_pairs() >= min(k, 2 * degree)
        # the last 2n points are still kept, bit for bit
        with counted_passes() as passes:
            for z in points[-2 * degree:]:
                eval_with_derivative(poly, z)
        assert passes == []

    def test_another_polynomial_drops_the_kept_pairs(self):
        other = MonicPolynomial((1.5, -0.25j, 3.0))
        reset_memo()
        for z in (0.5, 1.25j, -2.0):
            eval_with_derivative(SEXTIC, z)
        assert kept_pairs() == 3
        eval_with_derivative(other, 0.5)
        assert polynomial._last_scaled[0] is other
        assert kept_pairs() == 1
        with counted_passes() as passes:
            eval_with_derivative(SEXTIC, 0.5)
        assert len(passes) == 1

    # A point is looked up before it is checked, and a complex one is not
    # converted.

    def test_complex_repeat_returns_the_kept_pair(self):
        z = complex(1.25, -0.5)
        reset_memo()
        first = eval_with_derivative(SEXTIC, z)
        with counted_passes() as passes:
            again = eval_with_derivative(SEXTIC, complex(1.25, -0.5))
        assert passes == []
        assert again is first
        assert outcome(eval_with_derivative, SEXTIC, z) == cold_outcome(SEXTIC, z)

    @pytest.mark.parametrize("kept,equal", [(2 + 0j, 2.0), (2 + 0j, 2), (-3 - 0j, -3),
                                            (complex(-0.0, 0.0), 0.0)])
    def test_float_or_int_equal_to_a_kept_point_returns_its_pair(self, kept, equal):
        reset_memo()
        first = eval_with_derivative(SEXTIC, kept)
        with counted_passes() as passes:
            assert eval_with_derivative(SEXTIC, equal) is first
        assert passes == []

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf),
                                     complex(-math.inf, math.nan), math.nan, -math.inf])
    def test_non_finite_point_raises_with_points_kept(self, bad):
        reset_memo()
        for z in (0j, 1 + 1j, complex(1e308, 0.0)):
            outcome(eval_with_derivative, SEXTIC, z)
        with pytest.raises(NonFiniteError, match="evaluation point is not finite"):
            eval_with_derivative(SEXTIC, bad)

    def test_complex_point_kept_for_another_polynomial_is_evaluated_again(self):
        other = MonicPolynomial((1.5, -0.25j, 3.0))
        z = complex(0.5, 0.75)
        want = cold_outcome(other, z), cold_outcome(SEXTIC, z)
        reset_memo()
        eval_with_derivative(SEXTIC, z)
        with counted_passes() as passes:
            got = (outcome(eval_with_derivative, other, z),
                   outcome(eval_with_derivative, SEXTIC, z))
        assert got == want
        assert len(passes) == 2

    def test_polynomial_equality_hash_and_repr_ignore_the_memo(self):
        twin = MonicPolynomial(SEXTIC.low_coefficients)
        before = (vars(SEXTIC).copy(), hash(SEXTIC), repr(SEXTIC), pickle.dumps(SEXTIC))
        reset_memo()
        eval_with_derivative(SEXTIC, 0.5)
        assert (vars(SEXTIC), hash(SEXTIC), repr(SEXTIC), pickle.dumps(SEXTIC)) == before
        assert list(vars(SEXTIC)) == ["low_coefficients"]
        assert SEXTIC == twin and hash(SEXTIC) == hash(twin)
        assert repr(SEXTIC) == repr(twin)


# Two-stage evaluation.  A call that misses the memo runs the fixed-grid pass
# first when n^2 E >= _FIXED_GRID_WORK, and the exact pass `_exact_pair`
# only when the fixed-grid pass cannot decide a rounding.  These tests
# compare it with `_exact_pair` alone at the grid point z', bit for bit.

def grid_point(z):
    """z' as `eval_with_derivative` defines it: each part of z rounded to
    the nearest multiple of 2^min(0, e - 110), ties to even."""
    grid = max(0, 110 - math.frexp(max(abs(z.real), abs(z.imag)))[1])
    return complex(*(ldexp(round(ldexp(p, grid)), -grid) for p in (z.real, z.imag)))


def exact_pass(poly, z, real=False):
    """The bits of `_exact_pair` at z' (with ``real``, of `_exact_real_pair`
    on the real parts), or "overflow"."""
    coeffs = poly.low_coefficients
    f, ints = polynomial.dyadic_integers(
        [c.real for c in coeffs] if real else [p for c in coeffs for p in (c.real, c.imag)])
    w = grid_point(complex(z))
    e, (wr, wi) = polynomial.dyadic_integers((w.real, w.imag))
    exact = polynomial._exact_real_pair if real else polynomial._exact_pair
    try:
        v, d = exact(f, ints, e, wr, wi)
    except OverflowError:
        return "overflow"
    return struct.pack("<4d", v.real, v.imag, d.real, d.imag)


def assert_two_stage_exact(poly, z):
    """Cold evaluation at z has `_exact_pair`'s bits under the default
    dispatch and with the fixed-grid pass tried first; return the bits."""
    want = exact_pass(poly, z)
    assert cold_outcome(poly, z) == want, (poly, z)
    with counted_passes(*EXACT_PASSES, fixed_grid_everywhere=True):
        assert cold_outcome(poly, z) == want, (poly, z)
    return want


def dense(degree, seed=0, scale=1.0, real=False):
    rng = random.Random(seed)
    return MonicPolynomial([
        complex(rng.uniform(-1, 1), 0.0 if real else rng.uniform(-1, 1)) * scale
        for _ in range(degree)])


def from_roots(roots):
    """The monic polynomial with these Gaussian-integer roots (a list with
    repeats), expanded exactly by `poly_from_roots`."""
    counts = Counter(roots)
    poly = poly_from_roots(RootSystem(tuple(complex(*r) for r in counts),
                                      tuple(counts.values())))
    assert all(abs(p) <= 2 ** 53 for c in poly.low_coefficients for p in (c.real, c.imag))
    return poly


def scaled_parts(low, high):
    """Floats of either sign with binary exponents in [low, high]."""
    return st.builds(ldexp, st.floats(-1.0, 1.0), st.integers(low, high))


# coefficients whose exponents span 1000 bits, far more than the fixed grid
# keeps, so bits of the small ones fall below it
coefficient_parts = st.one_of(moderate_parts, scaled_parts(-700, 300))
two_stage_polys = st.integers(1, 96).flatmap(lambda n: st.lists(
    st.builds(complex, coefficient_parts, coefficient_parts),
    min_size=n, max_size=n)).map(MonicPolynomial)
# tiny and subnormal parts (large E), alone or next to a moderate part (the
# z' grid), and large ones that overflow at high degree
two_stage_parts = st.one_of(moderate_parts, scaled_parts(-1074, -300),
                            scaled_parts(-60, 60))
two_stage_points = st.builds(complex, two_stage_parts, two_stage_parts)


@st.composite
def near_multiple_roots(draw):
    """A polynomial with a root of multiplicity 3 to 8 at a Gaussian
    integer r, and a point within 2^-40 of r (r itself included)."""
    r = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
    alpha = draw(st.integers(3, 8))
    others = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           max_size=24 - alpha))
    offset = complex(ldexp(draw(st.floats(-1.0, 1.0)), -41),
                     ldexp(draw(st.floats(-1.0, 1.0)), -41))
    return from_roots([r] * alpha + others), complex(*r) + offset


class TestTwoStage:
    @settings(max_examples=250, deadline=None)
    @given(poly=two_stage_polys, z=two_stage_points)
    # subnormal z, and z with one tiny part, past the dispatch threshold
    @example(poly=dense(24), z=complex(5e-324, -3e-320))
    @example(poly=dense(96, 1), z=complex(1.3, 1e-300))
    @example(poly=dense(48, 2), z=complex(ldexp(1, -1000), 0.0))
    # coefficient parts from 2^-700 to 2^300
    @example(poly=MonicPolynomial([
        complex(ldexp(1.5, 300 - 10 * k), ldexp(-1.25, 10 * k - 700)) for k in range(96)]),
        z=complex(0.75, -0.5))
    # real coefficients at a real point: the imaginary parts are exactly 0
    @example(poly=MonicPolynomial([float(k % 7 - 3) for k in range(30)]), z=-0.8125)
    def test_result_has_the_bits_of_the_exact_pass(self, poly, z):
        assert_two_stage_exact(poly, z)

    @settings(max_examples=150, deadline=None)
    @given(case=near_multiple_roots())
    def test_near_a_multiple_root(self, case):
        assert_two_stage_exact(*case)

    @pytest.mark.parametrize("real", [False, True])
    def test_generic_point_takes_the_fixed_grid_pass(self, real):
        # Without this, a fixed-grid pass that always fell back would pass
        # every test above; real coefficients take its second-order loop.
        rng = random.Random(48)
        poly = dense(48, 48, real=real)
        points = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(20)]
        reset_memo()
        with counted_passes(*EXACT_PASSES, "_fixed_grid_pair") as passes:
            got = [outcome(eval_with_derivative, poly, z) for z in points]
        # no exact pass; args[2] is the fixed-grid pass's ``real``
        assert [(name, args[2]) for name, args in passes] == [("_fixed_grid_pair", real)] * 20
        assert got == [outcome(oracle_eval, poly, z) for z in points]

    @pytest.mark.parametrize("real, imag", [
        (False, 0.0), (True, 0.0), (True, 2.0 ** -50)])
    def test_derivative_bound_covers_errors_that_add_up(self, real, imag):
        # A = (x - 1)^5 (x + 1)^50 + 1: A' has a 4-fold zero at 1 while
        # A(1) = 1, so near 1 A' is decided by a few ulps only.  At a point
        # near 1 every floor errs the same way, A''s error grows like n^2
        # grid units, and a bound as small as A's misses it.  Adding i x
        # moves A' by i alone and sends A to the complex loop; the real A
        # takes the second-order loop, also at points whose imaginary part
        # is below 2^-44 of the real one, where the quadratic divisor nearly
        # has a double root.
        low = list(from_roots([(1, 0)] * 5 + [(-1, 0)] * 50).low_coefficients)
        low[-1] += 1
        if not real:
            low[-2] += 1j
        poly = MonicPolynomial(low)
        for j in range(1, 41):
            for re in (1 - j * 2.0 ** -48, 1 + j * 2.0 ** -48):
                assert_two_stage_exact(poly, complex(re, j * imag))

    @pytest.mark.parametrize("poly, z, root", [
        # A = 0 at a root: the interval holds both signs of zero, and the
        # exact pass gives +0.0
        (from_roots([(3, 0)] * 3 + [(1, 1)] * 16), 3.0, True),
        (from_roots([(0, 1)] * 3 + [(-1, 0)] * 16), 1j, True),
        # an 8-fold root: A is about 2^-320 times the sum of its terms
        (from_roots([(1, 0)] * 8 + [(2, -1)] * 12), complex(1.0, ldexp(1, -40)), False),
    ])
    def test_undecided_rounding_falls_back_to_the_exact_pass(self, poly, z, root):
        want = exact_pass(poly, z)
        reset_memo()
        with counted_passes(*EXACT_PASSES) as passes:
            assert outcome(eval_with_derivative, poly, z) == want
        assert len(passes) == 1
        assert want == outcome(oracle_eval, poly, z)
        assert (want[:16] == struct.pack("<2d", 0.0, 0.0)) is root

    @pytest.mark.parametrize("a1, z, signs", [
        # z^2 (z + a1) at z = -(1 + 2^-52) a1 is about -2^-52 a1^3: with
        # a1 = 2^-350, -2^-1102 (a real polynomial at a real point: the
        # imaginary part is exactly +0.0); with a1 = 2^-350 (1 + i/2),
        # -2^-1102 (1/4 + 11i/8), whose parts both round to -0.0
        (ldexp(1, -350), -ldexp(1 + 2.0 ** -52, -350), (-1.0, 1.0)),
        (complex(ldexp(1, -350), ldexp(1, -351)),
         complex(-ldexp(1 + 2.0 ** -52, -350), -ldexp(1 + 2.0 ** -52, -351)),
         (-1.0, -1.0)),
    ])
    def test_negative_underflow_is_negative_zero(self, a1, z, signs):
        poly = MonicPolynomial((a1, 0, 0))
        want = exact_pass(poly, z)
        with counted_passes(*EXACT_PASSES, fixed_grid_everywhere=True) as passes:
            assert cold_outcome(poly, z) == want
        assert passes == []  # the fixed-grid pass decides the sign
        value = complex(*struct.unpack("<2d", want[:16]))
        assert value == 0
        assert (math.copysign(1.0, value.real), math.copysign(1.0, value.imag)) == signs

    @pytest.mark.parametrize("poly, z", [
        (MonicPolynomial((0,) * 6), 1e100),
        (dense(48, 3), complex(ldexp(1, 30) + 0.5, 3.0)),
        (dense(48, 3, real=True), complex(ldexp(1, 30) + 0.5, 3.0)),
        (MonicPolynomial((0.0, 1.7e308)), 1e154),
        (dense(96, 4, scale=2.0 ** 1000), complex(1.5, 0.75)),
        (dense(96, 4, scale=2.0 ** 1000, real=True), complex(1.5, 0.75)),
    ])
    def test_overflow_raises_on_both_paths(self, poly, z):
        assert exact_pass(poly, z) == "overflow"
        assert cold_outcome(poly, z) == "overflow"
        with counted_passes(*EXACT_PASSES, fixed_grid_everywhere=True):
            assert cold_outcome(poly, z) == "overflow"


# Real coefficients.  A polynomial whose every Im a_k is 0 is evaluated by
# the second-order recurrence in both passes (`_exact_real_pair` and the
# real loop of `_fixed_grid_pair`).  These tests compare it, bit for bit,
# with the complex exact pass `_exact_pair` fed the zero imaginary parts and
# with the oracle, both at z'.

def assert_real_path_exact(poly, z):
    """Both real passes at z have the bits of the complex exact pass and of
    the oracle at z'."""
    want = assert_two_stage_exact(poly, z)
    assert polynomial._last_scaled[0] is poly and polynomial._last_scaled[3]
    assert exact_pass(poly, z, real=True) == want, (poly, z)
    assert outcome(oracle_eval, poly, grid_point(complex(z))) == want, (poly, z)


real_polys = st.integers(1, 96).flatmap(lambda n: st.lists(
    coefficient_parts, min_size=n, max_size=n)).map(MonicPolynomial)
# real points, points with an imaginary part 2^-1 to 2^-105 of the real one
# (the divisor x^2 - 2 Re z' x + |z'|^2 then nearly has a double root), and
# the points of the two-stage tests: tiny, subnormal and overflowing ones
near_real_points = st.builds(
    lambda x, k: complex(x, ldexp(x or 1.0, -k)), two_stage_parts, st.integers(1, 105))
real_path_points = st.one_of(st.builds(complex, two_stage_parts), near_real_points,
                             two_stage_points)


@st.composite
def near_multiple_real_roots(draw):
    """A real polynomial with a root of multiplicity 3 to 8 at an integer r,
    or a conjugate pair of roots of multiplicity 2 to 5 at r and conj(r), and
    a point within 2^-40 of r: r itself, a point on r's horizontal line, or
    one 2^-41 to 2^-100 off that line."""
    a, b = draw(st.integers(-2, 2)), draw(st.integers(0, 2))
    alpha = draw(st.integers(3, 8) if b == 0 else st.integers(2, 5))
    roots = [(a, b)] * alpha + [(a, -b)] * (alpha if b else 0)
    for x, y in draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2)),
                              max_size=(24 - len(roots)) // 2)):
        roots += [(x, y), (x, -y)] if y else [(x, 0)]
    re = ldexp(draw(st.floats(-1.0, 1.0)), -41)
    im = ldexp(draw(st.floats(-1.0, 1.0)), -draw(st.integers(41, 100)))
    offset = draw(st.sampled_from([0j, complex(re, 0.0), complex(re, im)]))
    return from_roots(roots), complex(a, b) + offset


class TestRealCoefficients:
    @settings(max_examples=250, deadline=None)
    @given(poly=real_polys, z=real_path_points)
    # degrees 1 and 2: no c_k at all, and c_(n-3) empty
    @example(poly=MonicPolynomial((0.75,)), z=complex(1.5, -0.25))
    @example(poly=MonicPolynomial((-1.0, 0.5)), z=complex(0.5, 2.0))
    @example(poly=MonicPolynomial((-1.0, 0.5)), z=-0.75)
    # subnormal z, z with one tiny part, and coefficients from 2^-700 to 2^300
    @example(poly=dense(24, real=True), z=complex(5e-324, -3e-320))
    @example(poly=dense(96, 1, real=True), z=complex(1.3, 1e-300))
    @example(poly=MonicPolynomial([ldexp(1.5 - k % 2, 300 - 10 * k) for k in range(96)]),
             z=complex(0.75, -0.5))
    # overflow
    @example(poly=dense(96, 4, real=True), z=complex(ldexp(1, 20), 3.0))
    def test_result_has_the_bits_of_the_complex_exact_pass(self, poly, z):
        assert_real_path_exact(poly, z)

    @settings(max_examples=150, deadline=None)
    @given(case=near_multiple_real_roots())
    # on a triple root, on a conjugate pair of double roots, and just off one
    @example(case=(from_roots([(3, 0)] * 3 + [(1, 1), (1, -1)]), 3 + 0j))
    @example(case=(from_roots([(1, 2)] * 2 + [(1, -2)] * 2), complex(1, 2)))
    @example(case=(from_roots([(1, 0)] * 8 + [(-2, 1), (-2, -1)] * 3),
                   complex(1 + 2.0 ** -41, 2.0 ** -90)))
    def test_near_multiple_roots(self, case):
        assert_real_path_exact(*case)

    def test_imaginary_bounds_cover_errors_that_grow(self):
        # A = (x - 1)^6 (x + 1)^50 + x: A'' has a 4-fold zero at 1 while
        # A'(1) = 1.  Im A' = 2 Im z' Re Q, with Re Q near A''/2, is kept
        # off the grid, and at points 2^-80 or less of their real part off
        # the real axis its bound is the one grown through W_m: near 1 the
        # errors of b_k and c_k add up to about n^3 grid units, and a bound
        # of n^2 misses them.
        low = list(from_roots([(1, 0)] * 6 + [(-1, 0)] * 50).low_coefficients)
        low[-2] += 1
        poly = MonicPolynomial(low)
        for j in range(1, 41):
            for re in (1 - j * 2.0 ** -52, 1 + j * 2.0 ** -52):
                assert_real_path_exact(poly, complex(re, j * 2.0 ** -80))

    def test_path_is_chosen_once_per_polynomial(self):
        # Zero imaginary parts of either sign select the real passes; the
        # magnitudes that choose the fixed grid are kept from the first
        # fixed-grid pass of a polynomial on, never built before it.
        reset_memo()
        eval_with_derivative(SEXTIC, 0.5)
        assert polynomial._last_scaled[3:5] == (True, [])
        poly = MonicPolynomial([complex(c.real, -0.0)
                                for c in dense(48, 5, real=True).low_coefficients])
        eval_with_derivative(poly, 0.3)  # n^2 E >= 3 * 2^13: fixed grid
        assert polynomial._last_scaled[3:5] == (
            True, [1, polynomial._last_scaled[2],
                   [abs(c.real) for c in poly.low_coefficients]])
        eval_with_derivative(dense(48, 5), 0.5j)
        assert polynomial._last_scaled[3] is False


# Polynomials in x^g.  Where n and every k with a_k != 0 are multiples of
# g >= 2, A(x) = P(x^g), and the fixed-grid pass runs on P at z'^g in n/g
# steps.  These tests compare it with `_exact_pair` at z', bit for bit, as
# the two-stage tests do.

def spread(low, g):
    """The low coefficients of P(x^g) for P with the low coefficients ``low``."""
    return [low[k // g - 1] if k % g == 0 else 0j for k in range(1, g * len(low) + 1)]


def lacunary(degree, g, seed=0, real=False):
    return MonicPolynomial(spread(dense(degree // g, seed, real=real).low_coefficients, g))


def gaussian_power(root, k):
    re, im = 1, 0
    for _ in range(k):
        re, im = re * root[0] - im * root[1], re * root[1] + im * root[0]
    return re, im


# a coefficient of P: zero (a_n = 0 included), or real or complex parts
# spanning 1000 bits
lacunary_coefficients = st.one_of(
    st.just(0j), st.builds(complex, coefficient_parts),
    st.builds(complex, coefficient_parts, coefficient_parts))


@st.composite
def lacunary_polys(draw):
    """P(x^g) with g from 2 to 96 and degree up to 96, its coefficients all
    real or not."""
    g = draw(st.integers(2, 96))
    low = draw(st.lists(lacunary_coefficients, min_size=1, max_size=96 // g))
    if draw(st.booleans()):
        low = [complex(c.real) for c in low]
    return MonicPolynomial(spread(low, g))


@st.composite
def near_multiple_lacunary_roots(draw):
    """P(x^g), g from 2 to 12, where P has a root of multiplicity 2 to 6 at
    r^g for a Gaussian integer r (so A has one at r), and a point within
    2^-40 of r (r itself included)."""
    g = draw(st.integers(2, 12))
    r = (draw(st.integers(-1, 1)), draw(st.integers(-1, 1)))
    alpha = draw(st.integers(2, 6))
    others = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           max_size=min(24, 96 // g) - alpha))
    low = from_roots([gaussian_power(r, g)] * alpha + others).low_coefficients
    offset = draw(st.sampled_from([0j, complex(ldexp(draw(st.floats(-1.0, 1.0)), -41),
                                               ldexp(draw(st.floats(-1.0, 1.0)), -41))]))
    return MonicPolynomial(spread(low, g)), complex(*r) + offset


@st.composite
def near_multiple_real_lacunary_roots(draw):
    """P(x^g) with real coefficients, g from 6 to 12 (so z'^g has more bits
    below the point than the loop keeps, and 2 Re W and |W|^2 are floored),
    where P has a root of multiplicity 3 to 5 at r^g for r in {1, -1, i,
    1 + i, ...}, with its conjugate when r^g is not real, so A has one at
    r; and a point within 2^-40 of r, moved by 2^-41 or less along the
    real axis, by 2^-41 to 2^-100 along the imaginary axis, or both."""
    g = draw(st.integers(6, 12))
    r = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1)]))
    root = gaussian_power(r, g)
    alpha = draw(st.integers(3, min(5, 96 // g // (2 if root[1] else 1))))
    roots = [root] * alpha + ([(root[0], -root[1])] * alpha if root[1] else [])
    for x, y in draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2)),
                              max_size=(96 // g - len(roots)) // 2)):
        roots += [(x, y), (x, -y)] if y else [(x, 0)]
    nonzero = st.builds(math.copysign, st.floats(0.5, 1.0), st.sampled_from([1.0, -1.0]))
    re = ldexp(draw(nonzero), -41)
    im = ldexp(draw(nonzero), -draw(st.integers(41, 100)))
    offset = draw(st.sampled_from([complex(re, 0.0), complex(re, im), complex(0.0, im)]))
    low = [c.real for c in from_roots(roots).low_coefficients]
    return MonicPolynomial(spread(low, g)), complex(*r) + offset


def assert_substituted_passes_decide(poly, g, real):
    """At 20 random points of the unit square every evaluation of ``poly``
    (in x^g) is one fixed-grid pass at step g that decides, with the
    oracle's bits."""
    rng = random.Random(60)
    points = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(20)]
    reset_memo()
    with counted_passes(*EXACT_PASSES, "_fixed_grid_pair") as passes:
        got = [outcome(eval_with_derivative, poly, z) for z in points]
    # no exact pass; args[2] is ``real`` and args[-1] the step g
    assert [(name, args[2], args[-1]) for name, args in passes] == [
        ("_fixed_grid_pair", real, g)] * 20
    assert polynomial._last_scaled[4][0] == g
    assert got == [outcome(oracle_eval, poly, z) for z in points]


class TestLacunary:
    @settings(max_examples=250, deadline=None)
    @given(poly=lacunary_polys(), z=two_stage_points)
    # x^96 - 1/2 at |z| ~ 1, at |z| ~ 1e-100 and at subnormal z; a_n = 0;
    # complex coefficients
    @example(poly=MonicPolynomial([0] * 95 + [-0.5]), z=complex(0.6, 0.8))
    @example(poly=MonicPolynomial([0] * 95 + [-0.5]), z=complex(0.6e-100, -0.8e-100))
    @example(poly=MonicPolynomial([0] * 95 + [-0.5]), z=complex(5e-324, -3e-320))
    @example(poly=MonicPolynomial(spread([0.5, -1.25, 0.0], 20)), z=complex(-0.3, 0.9))
    @example(poly=lacunary(60, 12, 1), z=complex(0.7, -0.2))
    @example(poly=lacunary(96, 2, 2), z=complex(1e-100, 3e-101))
    def test_result_has_the_bits_of_the_exact_pass(self, poly, z):
        assert_two_stage_exact(poly, z)

    @settings(max_examples=150, deadline=None)
    @given(case=near_multiple_lacunary_roots())
    # on a 4-fold root of a real polynomial in x^6, and just off a triple
    # root at 1 + i of a complex one in x^4
    @example(case=(MonicPolynomial(spread(from_roots([(1, 0)] * 4 + [(2, 0)]).low_coefficients,
                                          6)), 1 + 0j))
    @example(case=(MonicPolynomial(spread(from_roots([(-4, 0)] * 3 + [(1, 1)]).low_coefficients,
                                          4)), complex(1 + 2.0 ** -41, 1 - 2.0 ** -42)))
    def test_near_a_multiple_root(self, case):
        assert_two_stage_exact(*case)

    @settings(max_examples=150, deadline=None)
    @given(case=near_multiple_real_lacunary_roots())
    # on a 4-fold root at 1 in x^8, and just off a triple root at 1 + i
    # in x^6 (P has triple roots at -8i and 8i)
    @example(case=(MonicPolynomial(spread([c.real for c in from_roots(
        [(1, 0)] * 4 + [(-2, 0)]).low_coefficients], 8)), 1 + 0j))
    @example(case=(MonicPolynomial(spread([c.real for c in from_roots(
        [(0, -8)] * 3 + [(0, 8)] * 3).low_coefficients], 6)),
        complex(1 - 2.0 ** -41, 1 + 2.0 ** -43)))
    def test_near_a_multiple_root_of_a_real_polynomial(self, case):
        # Near a multiple root A and A' are far below their terms, so an
        # error in the floored recurrence beyond its bound shows in the
        # bits; the fixed-grid pass is tried at every point, in its real loop.
        assert_two_stage_exact(*case)
        assert polynomial._last_scaled[3]

    @pytest.mark.parametrize("g", [8, 12, 16])
    def test_derivative_bound_carries_the_factor_g_u(self, g):
        # P = (y - 1)^6 (y + 1)^40 + 1: P' has a 5-fold zero at 1 while
        # P(1) = 1, so near x = 1, A' = g x^(g-1) P'(x^g) is decided by a
        # few ulps, and a bound on A' that drops the factor g |U| puts some
        # of these points on the wrong number.  Near x = i (g is a multiple
        # of 4, so x^g is again near 1) U = x^(g-1) is imaginary, and
        # Im A' = g Im U Re P'(W) must take its bound from Re P'(W).
        low = list(from_roots([(1, 0)] * 6 + [(-1, 0)] * 40).low_coefficients)
        low[-1] += 1
        poly = MonicPolynomial(spread(low, g))
        for j in range(1, 41):
            for t in (1 - j * 2.0 ** -48, 1 + j * 2.0 ** -48):
                assert_two_stage_exact(poly, complex(t, 0.0))
                assert_two_stage_exact(poly, complex(0.0, t))

    @pytest.mark.parametrize("real", [False, True])
    def test_ring_polynomial_takes_the_substituted_pass(self, real):
        # degree 60 in x^12: each fixed-grid pass runs five steps at z^12
        # and decides
        assert_substituted_passes_decide(lacunary(60, 12, 12, real=real), 12, real)

    @pytest.mark.parametrize("real", [False, True])
    def test_polynomial_in_x2_takes_the_substituted_pass(self, real):
        # in x^2, U = z' keeps all its bits (nothing is floored), and
        # A' = 2 U P'(W) decides as well
        assert_substituted_passes_decide(lacunary(96, 2, 2, real=real), 2, real)

    @pytest.mark.parametrize("g, a, z", [
        pytest.param(g, a, z, id=f"{name}{z}")
        for name, g, a in (("", 96, 0.5), ("x24-half-", 24, 0.5),
                           ("x96-complex-", 96, 0.3 + 0.4j))
        for z in (complex(0.6, 0.8), complex(0.6e-100, -0.8e-100), complex(5e-324, -3e-320))])
    def test_every_point_takes_step_g(self, g, a, z):
        # x^g - a: at |z| ~ 1, at |z| ~ 1e-100 and at subnormal z, where z^g
        # has about g E bits per part (E = 53, 386 and 1074), the pass runs
        # one step at z^g and decides, with W and U at all their bits; a
        # complex a takes the complex loop
        poly = MonicPolynomial([0] * (g - 1) + [-a])
        reset_memo()
        with counted_passes(*EXACT_PASSES, "_fixed_grid_pair") as passes:
            got = outcome(eval_with_derivative, poly, z)
        assert [(name, args[-1]) for name, args in passes] == [("_fixed_grid_pair", g)]
        assert got == exact_pass(poly, z) == outcome(oracle_eval, poly, z)


# The bounds themselves.  The fixed-grid pass hands `_rounded` each part as
# an interval [v - b, v + b] 2^-k, and a pair it returns is the exact
# pass's only if every interval holds its exact part.  These tests record
# the intervals, decided or not, and check each against the exact value at
# z'; the results alone would hide a bound that is too small but happens to
# round to the right number.

@contextlib.contextmanager
def recorded_intervals():
    """Yield a list that gets the (v, b, k) of each `_rounded` call made
    inside."""
    intervals = []
    rounded = polynomial._rounded

    def recording(v, b, k):
        intervals.append((v, b, k))
        return rounded(v, b, k)

    polynomial._rounded = recording
    try:
        yield intervals
    finally:
        polynomial._rounded = rounded


def assert_intervals_hold(poly, z):
    """A cold fixed-grid pass at z hands `_rounded` the intervals of Re A,
    Im A, Re A' and Im A', in that order, and each holds the exact part."""
    with recorded_intervals() as intervals, counted_passes(fixed_grid_everywhere=True):
        cold_outcome(poly, z)
    assert len(intervals) == 4, (poly, z)
    (vr, vi), (dr, di) = exact_eval(poly, grid_point(complex(z)))
    for part, (v, b, k), exact in zip(("Re A", "Im A", "Re A'", "Im A'"),
                                      intervals, (vr, vi, dr, di)):
        assert abs(v - exact * 2 ** k) <= b, (part, poly, z)


def ring_polynomial(c, rings, real=True):
    """Prod (x^c - w)^alpha over ``rings``, (w, alpha) pairs with w a
    Gaussian integer (s R^c, the ring of radius R = |w|^(1/c)); with
    ``real`` the coefficients are stored as real numbers."""
    low = from_roots([w for w, alpha in rings for _ in range(alpha)]).low_coefficients
    if real:
        low = [c.real for c in low]
    return MonicPolynomial(spread(low, c))


#: Three rings of 8 roots each: radii 1, 2 and 3, the middle one double.
THREE_RINGS = ring_polynomial(8, [((1, 0), 1), ((256, 0), 2), ((6561, 0), 1)])


def near_axis_point(root, offset, gap):
    """A point ``offset`` 2^-8 |root| off ``root`` (on the real or imaginary
    axis) along that axis, and 2^-gap / 8 of |root| off the axis, so that
    z^8 is about 2^-gap of its modulus off the real axis."""
    return root * (1 + offset * 2.0 ** -8) + root * 1j * ldexp(1.0, -gap) / 8


class TestBounds:
    @settings(max_examples=60, deadline=None)
    @given(poly=st.one_of(st.builds(dense, st.sampled_from([24, 48]), st.integers(0, 9),
                                    real=st.booleans()),
                          st.builds(lacunary, st.sampled_from([24, 60, 96]),
                                    st.sampled_from([2, 3, 12]), st.integers(0, 9),
                                    real=st.booleans())),
           z=st.one_of(st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                       near_real_points.filter(lambda z: 0 < abs(z) < 2)))
    def test_random_polynomials_g_1_and_above(self, poly, z):
        assert_intervals_hold(poly, z)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("gap", [0, 20, 60, 100, 200])
    def test_ring_polynomial_near_its_roots(self, real, gap):
        # the roots on the axes: z^8 is real there, and near them Im z^8
        # is about 2^-gap of |z^8| (a gap of 0 puts z 1/8 off the axis;
        # at 200 the grid of z' rounds the small part away, and Im A and
        # Im A' are exactly 0)
        poly = ring_polynomial(8, [((1, 0), 1), ((256, 0), 2), ((6561, 0), 1)], real)
        for root in (1, -2, 3j, -1j):
            for offset in (-0.7, 0.3):
                assert_intervals_hold(poly, near_axis_point(root, offset, gap))

    def test_complex_ring_signs(self):
        # rings x^7 = -2^7 and x^7 = 3^7 i (complex coefficients): near
        # their roots U = z^6 and W = z^7 have two parts of about one size
        poly = ring_polynomial(7, [((-128, 0), 2), ((0, 2187), 1)], real=False)
        rng = random.Random(7)
        for _ in range(10):
            radius, angle = rng.choice([(2, math.pi / 7), (3, math.pi / 14)])
            root = cmath.rect(radius, angle + 2 * math.pi * rng.randrange(7) / 7)
            assert_intervals_hold(poly, root * (1 + ldexp(rng.uniform(-1, 1), -30)))

    @pytest.mark.parametrize("real, imag", [
        (False, 0.0), (True, 0.0), (True, 2.0 ** -50)])
    def test_floors_that_add_up(self, real, imag):
        # The polynomial of `test_derivative_bound_covers_errors_that_add_up`:
        # near 1 every floor errs the same way.
        low = list(from_roots([(1, 0)] * 5 + [(-1, 0)] * 50).low_coefficients)
        low[-1] += 1
        if not real:
            low[-2] += 1j
        poly = MonicPolynomial(low)
        for j in range(1, 41, 3):
            for re in (1 - j * 2.0 ** -48, 1 + j * 2.0 ** -48):
                assert_intervals_hold(poly, complex(re, j * imag))


class TestNearAxis:
    def test_three_rings_decide_where_z_g_nears_the_real_axis(self):
        # A quarter of the ring iterates of the benchmark pools have one
        # part of W = z'^g 49 or more bits below the other.  Im A and Im A'
        # are then far below the terms, and the pass decides them only if
        # Im W keeps its own bits: one floored to the grid of Re W would
        # send these points to the exact pass (or, where it floors to 0,
        # give them wrong bounds).
        points = [near_axis_point(root, offset, gap)
                  for root, offset in ((1, 0.3), (-2, -0.7), (3j, 0.3), (-1j, -0.7))
                  for gap in (20, 40, 60, 80, 100)]
        reset_memo()
        with counted_passes(*EXACT_PASSES, "_fixed_grid_pair") as passes:
            got = [outcome(eval_with_derivative, THREE_RINGS, z) for z in points]
        assert [(name, args[-1]) for name, args in passes] == [("_fixed_grid_pair", 8)] * 20
        assert got == [outcome(oracle_eval, THREE_RINGS, z) for z in points]
        for z in points:
            w = grid_point(z) ** 8
            assert 2.0 ** -104 <= abs(w.imag) / abs(w) <= 2.0 ** -17, z


# The fixed-grid pass decides each part on integers where it can and by two
# int true divisions otherwise.  These tests compare `_rounded` with the two
# divisions alone, bit for bit, exceptions included.

def divided(v, b, k):
    """The binary64 number of (v - b) / 2^k if (v + b) / 2^k has its bits,
    else None, by int true division (CPython rounds it correctly)."""
    scale = 1 << k
    low, high = (v - b) / scale, (v + b) / scale
    return low if struct.pack("<d", low) == struct.pack("<d", high) else None


def decision(rounding, v, b, k):
    try:
        x = rounding(v, b, k)
    except OverflowError:
        return "overflow"
    return None if x is None else struct.pack("<d", x)


def decision_cases(rng, count):
    """(v, b, k) with |v| up to 1,200 bits of either sign, b from 0 to
    about |v|, and v / 2^k from the subnormal range to beyond binary64;
    a quarter put |v| - b on a bucket's start (a tie where b = 0)."""
    for _ in range(count):
        top = rng.choice([rng.randint(-1110, -1015), rng.randint(-1015, 1015),
                          rng.randint(1015, 1030)])  # about log2 |v / 2^k|
        bits = rng.randint(max(1, top), 1200)
        m = rng.getrandbits(bits) | 1 << (bits - 1)
        b = rng.choice([0, rng.randint(0, 64), rng.getrandbits(rng.randint(1, bits))])
        if rng.random() < 0.25 and bits > 56:
            b = min(b, rng.getrandbits(bits - 56))
            shift = (m + b).bit_length() - 55
            m = ((m + b) >> shift << shift) + b - rng.randint(0, 1)
        k = bits - top
        yield (m if rng.random() < 0.5 else -m), b, k


def tie(q, shift, b=0):
    """|v| - b at the start of bucket q, q = 2 mod 4 being a midpoint."""
    return (q << shift) + b, b


class TestRoundingDecision:
    def test_random_cases_match_two_divisions(self):
        rng = random.Random(21)
        outcomes = Counter()
        for v, b, k in decision_cases(rng, 20000):
            got = decision(polynomial._rounded, v, b, k)
            assert got == decision(divided, v, b, k), (v, b, k)
            outcomes["none" if got is None else "overflow" if got == "overflow" else "x"] += 1
        assert min(outcomes.values()) > 300, outcomes

    @pytest.mark.parametrize("v, b, k", [
        # exact midpoints (b = 0): ties to even, both ways, either sign
        (*tie(2 ** 54 + 2, 10), 0), (*tie(2 ** 54 + 6, 10), 0),
        (-tie(2 ** 54 + 2, 300)[0], 0, 200), (-tie(2 ** 54 + 6, 300)[0], 0, 200),
        # an interval starting at a midpoint, and one ending just below it
        (*tie(2 ** 54 + 2, 40, b=5), 30), (*tie(2 ** 54 + 6, 40, b=5), 30),
        (tie(2 ** 54 + 6, 40)[0] - 6, 5, 30),
        # b = 0 off a midpoint; exactly 0; an interval around 0
        (3 << 100, 0, 100), (0, 0, 7), (0, 3, 7), (-1, 3, 7),
        # the smallest normal binade, the largest subnormals, and values
        # whose 53-bit rounding would land on a subnormal tie
        (2 ** 60 + 1, 0, 1082), (2 ** 60 + 1, 0, 1083), ((2 ** 53 - 1) << 7, 2, 1081),
        (2 ** 60 + 1, 0, 1135), (3 * 2 ** 60 + 1, 0, 1135), (-(2 ** 60 + 1), 0, 1135),
        # the largest binary64 number, a midpoint that ties up to 2^1024,
        # and values at and beyond 2^1024
        ((2 ** 53 - 1) << 971, 0, 0), ((2 ** 53 - 1) << 971, 2 ** 900, 0),
        ((2 ** 54 - 1) << 970, 0, 0), (((2 ** 54 - 1) << 970) + 1, 0, 0),
        (-(((2 ** 54 - 1) << 970) + 1), 0, 0), (2 ** 1024, 0, 0), (2 ** 1100, 1, 70),
    ])
    def test_edges_match_two_divisions(self, v, b, k):
        assert decision(polynomial._rounded, v, b, k) == decision(divided, v, b, k)


def _is_normal_or_zero(x):
    return x == 0 or 2.0 ** -1022 <= abs(x) <= 1.7976931348623157e308


@pytest.mark.parametrize("s", [s for s in range(-20, 21) if s])
def test_power_of_two_scaling_is_exact(s):
    # a_k -> 2^(ks) a_k and z -> 2^s z multiply A by 2^(ns) and A' by
    # 2^((n-1)s) exactly, and the grid of z' scales with z; so while every
    # part stays in the normal range, the results scale bit for bit.
    rng = random.Random(2024)
    cases = [(SEXTIC, z) for z in (3 + 2.0 ** -20, complex(2.9997, 2e-4), 1.3 + 1e-290j)]
    for degree in (1, 3, 8, 20):
        poly = MonicPolynomial([complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                                for _ in range(degree)])
        cases += [(poly, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))),
                  (poly, complex(rng.uniform(-2, 2), 1e-280))]
    checked = 0
    for poly, z in cases:
        n = poly.degree
        scaled_poly = MonicPolynomial([
            complex(ldexp(a.real, k * s), ldexp(a.imag, k * s))
            for k, a in enumerate(poly.low_coefficients, start=1)])
        w = complex(ldexp(z.real, s), ldexp(z.imag, s))
        value, deriv = eval_with_derivative(poly, z)
        parts = [p for c in (*poly.low_coefficients, *scaled_poly.low_coefficients,
                             z, w, value, deriv) for p in (c.real, c.imag)]
        want = (complex(ldexp(value.real, n * s), ldexp(value.imag, n * s)),
                complex(ldexp(deriv.real, (n - 1) * s), ldexp(deriv.imag, (n - 1) * s)))
        if not all(map(_is_normal_or_zero, parts + [p for c in want for p in (c.real, c.imag)])):
            continue
        got = eval_with_derivative(scaled_poly, w)
        assert [bits for c in got for bits in struct.pack("<2d", c.real, c.imag)] == \
            [bits for c in want for bits in struct.pack("<2d", c.real, c.imag)], (poly, z)
        checked += 1
    assert checked >= 8


def _to_binary64(x):
    # An mpf is ±man * 2^exp exactly; float() of the Fraction rounds once.
    man, exp = x.man_exp
    return float(Fraction(-man if x < 0 else man) * Fraction(2) ** exp)


@pytest.mark.parametrize("z", [
    3 + 2.0 ** -20, complex(3 + 1e-5, 1e-6), complex(2.9997, 2e-4), 2.999999,
])
def test_sextic_near_triple_root_matches_50_digit_evaluation(z):
    # Plain binary64 Horner has an error bound ~eps * 2e4 here, far above
    # |A(z)| ~ 1e-16 .. 1e-9; the exact evaluation rounds each part once,
    # so it equals the 50-digit value rounded to binary64.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        coeffs = [1] + [int(c.real) for c in SEXTIC.low_coefficients]
        exact_v, exact_d = mpmath.polyval(coeffs, mpmath.mpc(z), derivative=True)
        want = [_to_binary64(p) for p in (exact_v.real, exact_v.imag,
                                          exact_d.real, exact_d.imag)]
    value, deriv = eval_with_derivative(SEXTIC, z)
    assert [value.real, value.imag, deriv.real, deriv.imag] == want
