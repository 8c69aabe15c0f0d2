import cmath
import math
import random
import struct

import numpy as np
import pytest

from multiroots import (
    MonicPolynomial,
    NonFiniteError,
    eval_with_derivative,
    integer_power,
)
from multiroots.compensated import ComplexDD

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


def reference_eval_with_derivative(poly, z):
    """The Horner loop over ComplexDD objects that the flat kernel replaced."""
    zc = complex(z)
    if not (math.isfinite(zc.real) and math.isfinite(zc.imag)):
        raise NonFiniteError("evaluation point is not finite")
    value = ComplexDD(1.0)
    deriv = ComplexDD(0.0)
    for a in poly.low_coefficients:
        deriv = deriv.mul_complex(zc).add(value)
        value = value.mul_complex(zc).add_complex(a)
    v = value.to_complex()
    d = deriv.to_complex()
    if not all(math.isfinite(x) for x in (v.real, v.imag, d.real, d.imag)):
        raise NonFiniteError("polynomial evaluation overflowed")
    return v, d


def outcome(evaluate, poly, z):
    """The bits of (value, derivative), or "overflow" when evaluation raises."""
    try:
        v, d = evaluate(poly, z)
    except NonFiniteError:
        return "overflow"
    return struct.pack("<4d", v.real, v.imag, d.real, d.imag)


def assert_same_bits(poly, z):
    got = outcome(eval_with_derivative, poly, z)
    assert got == outcome(reference_eval_with_derivative, poly, z), (poly, z)
    return got


class TestFlatKernelMatchesComplexDD:
    SCALES = (2.0 ** -60, 1.0, 2.0 ** 60)

    @pytest.mark.parametrize("degree", range(1, 41))
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
                    finite += assert_same_bits(poly, z) != "overflow"
        assert finite >= 18  # only |z| ~ 2^60 can overflow, at high degree

    @pytest.mark.parametrize("z", [
        2.5, -0.0, complex(0.75, -0.0), complex(-0.0, 1.25),
        complex(-0.0, -0.0), complex(-1.5, 0.0), complex(3.0, -0.0),
    ])
    def test_real_points_and_signed_zeros(self, z):
        polys = (
            SEXTIC,
            MonicPolynomial((0, 0, 0, 0, 0)),
            MonicPolynomial((complex(-0.0, -0.0), complex(0.0, -0.0), -0.0)),
            MonicPolynomial((complex(0.5, -1.25), complex(-2.0, -0.0), complex(-0.0, 3.5))),
        )
        for poly in polys:
            assert assert_same_bits(poly, z) != "overflow"

    @pytest.mark.parametrize("poly, z", [
        (MonicPolynomial((3.0,)), 2.0 ** 1000),
        (MonicPolynomial((complex(1.0, -2.0),)), complex(0.5, -(2.0 ** 997))),
        (MonicPolynomial((-1.0,)), complex(2.0 ** 999, 2.0 ** 1000)),
        (MonicPolynomial((2.0 ** 1010, 2.0 ** 1015)), complex(0.25, 0.5)),
        (MonicPolynomial((complex(2.0 ** 1000, -(2.0 ** 1005)), 1.0)), -0.75),
        (MonicPolynomial((complex(2.0 ** 1000, -(2.0 ** 1001)), 0, 0)), complex(0.5, -0.25)),
    ])
    def test_split_fallback_beyond_two_to_996(self, poly, z):
        # A factor above 2^996 takes the uncompensated product.
        assert assert_same_bits(poly, z) != "overflow"

    def test_near_overflow_raises_from_both(self):
        # z^2 = 1e308 and a_2 = 1.7e308 are finite; only their sum overflows.
        poly = MonicPolynomial((0.0, 1.7e308))
        with pytest.raises(NonFiniteError):
            eval_with_derivative(poly, 1e154)
        with pytest.raises(NonFiniteError):
            reference_eval_with_derivative(poly, 1e154)


@pytest.mark.parametrize("z", [
    3 + 2.0 ** -20, complex(3 + 1e-5, 1e-6), complex(2.9997, 2e-4), 2.999999,
])
def test_sextic_near_triple_root_matches_50_digit_evaluation(z):
    # Plain binary64 Horner has an error bound ~eps * 2e4 here, far above
    # |A(z)| ~ 1e-16 .. 1e-9; double-word accumulation keeps a few ulps.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        coeffs = [1] + [int(c.real) for c in SEXTIC.low_coefficients]
        exact_v, exact_d = mpmath.polyval(coeffs, mpmath.mpc(z), derivative=True)
        value, deriv = eval_with_derivative(SEXTIC, z)
        assert abs(mpmath.mpc(value) - exact_v) <= 1e-14 * abs(exact_v)
        assert abs(mpmath.mpc(deriv) - exact_d) <= 1e-14 * abs(exact_d)
