"""Property-based checks of the structural invariants."""

import math
import struct

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from multiroots import (
    MonicPolynomial,
    NonFiniteError,
    RootSystem,
    error_bound,
    eval_with_derivative,
    gek_step,
    poly_from_roots,
    q_log_derivative,
    separation,
)
from multiroots.iteration import _power, q_product
from multiroots.polynomial import integer_power
from multiroots.rootsystem import _first_collision
from test_rootsystem import root_system_outcome, ref_root_system_outcome

finite_reals = st.floats(min_value=-10.0, max_value=10.0,
                         allow_nan=False, allow_infinity=False)
small_complex = st.builds(complex, finite_reals, finite_reals)


@st.composite
def monic_polynomials(draw, max_degree=10):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    coeffs = draw(st.lists(small_complex, min_size=degree, max_size=degree))
    return MonicPolynomial(tuple(coeffs))


@st.composite
def root_systems(draw, m_max=5, alpha_max=3, box=2.0, min_sep=1.0):
    m = draw(st.integers(min_value=1, max_value=m_max))
    pts = draw(st.lists(
        st.tuples(st.floats(-box, box), st.floats(-box, box)),
        min_size=m, max_size=m,
    ))
    roots = [complex(a, b) for a, b in pts]
    for i in range(m):
        for j in range(i):
            assume(abs(roots[i] - roots[j]) >= min_sep)
    mults = draw(st.lists(st.integers(1, alpha_max), min_size=m, max_size=m))
    return RootSystem(tuple(roots), tuple(mults))


eval_points = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@given(monic_polynomials(), eval_points)
@settings(max_examples=150)
def test_derivative_agrees_with_central_difference(poly, z):
    _, deriv = eval_with_derivative(poly, z)
    h = 1e-6 * max(1.0, abs(z))
    vp, _ = eval_with_derivative(poly, z + h)
    vm, _ = eval_with_derivative(poly, z - h)
    fd = (vp - vm) / (2 * h)
    # the difference quotient itself carries truncation (h^2 |A'''| / 6)
    # and roundoff (eps |A| / h) error; its own budget caps what agreement
    # can be demanded near critical points
    r = max(1.0, abs(z) + h)
    third = sum(
        c * e * (e - 1) * (e - 2) * r ** (e - 3)
        for c, e in zip(
            (1.0,) + tuple(abs(c) for c in poly.low_coefficients),
            range(poly.degree, -1, -1),
        )
        if e >= 3
    )
    oracle_err = 2.2e-16 * max(abs(vp), abs(vm)) / h + h * h * third / 6.0
    assert abs(fd - deriv) <= max(1e-6 * abs(deriv), 2.0 * oracle_err)


@given(root_systems())
@example(RootSystem((1j, 2 + 1.9999999999999998j, 0j, 2j, 1), (3, 3, 2, 3, 3)))
@example(RootSystem((2.225073858507e-311j, 1 + 0.4610957759394494j), (1, 1)))
@settings(max_examples=100)
def test_expanded_polynomial_vanishes_at_roots(rs):
    # The root is exact and each coefficient is the exact one rounded once
    # (an error of at most 2**-53 |a_k|), so |A(x)| <= 2**-53 times the
    # condition sum sum_k |a_k| |x|**(n - k); the exact evaluation adds one
    # rounding of the value, and at most n 2**-110 of that sum where it
    # evaluates at a grid point x' within 2**-110 |x| of x.  The bound
    # allows about twice as much.  Below the normal range a rounding errs by up to
    # 2**-1075 absolute instead, in the coefficients and in the value alike;
    # the second term allows 4n errors of 2**-1074 at each power of |x|.
    poly = poly_from_roots(rs)
    coeffs = (1.0,) + poly.low_coefficients
    n = poly.degree
    for root in rs.roots:
        value, _ = eval_with_derivative(poly, root)
        powers = [abs(root) ** (n - k) for k in range(n + 1)]
        condition = sum(abs(a) * p for a, p in zip(coeffs, powers))
        assert abs(value) <= 2.0 ** -52 * condition + 4 * n * 2.0 ** -1074 * sum(powers)


@given(root_systems(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_expansion_is_permutation_invariant(rs, rnd):
    order = list(range(rs.m))
    rnd.shuffle(order)
    shuffled = RootSystem(
        tuple(rs.roots[p] for p in order),
        tuple(rs.multiplicities[p] for p in order),
    )
    a = poly_from_roots(rs).low_coefficients
    b = poly_from_roots(shuffled).low_coefficients
    assert [struct.pack("<dd", x.real, x.imag) for x in a] == \
        [struct.pack("<dd", y.real, y.imag) for y in b]


@given(root_systems(m_max=4))
@settings(max_examples=60)
def test_separation_is_permutation_symmetric(rs):
    assume(rs.m >= 2)
    reversed_rs = RootSystem(rs.roots[::-1], rs.multiplicities[::-1])
    assert separation(rs) == separation(reversed_rs)


@given(small_complex, st.integers(0, 8))
@settings(max_examples=100)
def test_integer_power_matches_repeated_multiplication(base, exponent):
    expected = complex(1.0)
    for _ in range(exponent):
        expected *= base
    got = integer_power(base, exponent)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


# Parts of a power's base: signed zeros, subnormals, the ends of the range,
# any finite binary64 number, and magnitudes near 1 whose high powers stay
# finite.  ldexp(m, e) with |m| <= 1 and e <= 1023 cannot overflow.
power_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -1.7976931348623157e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1100, 1023)),
    st.floats(-1.1, 1.1),
)


def _power_outcome(power, base, exponent):
    """("ok", bits) of a finite power, else ("non-finite", None)."""
    try:
        got = power(base, exponent)
    except (OverflowError, NonFiniteError):
        return "non-finite", None
    if not (math.isfinite(got.real) and math.isfinite(got.imag)):
        return "non-finite", None
    return "ok", struct.pack("<dd", got.real, got.imag)


def _assert_power_is_integer_power(base, exponent):
    # The kernel forms its powers with complex ** (`iteration._power`); for
    # exponents up to 100 CPython runs integer_power's binary powering, so
    # every finite result has its bits, and where one side is not finite
    # neither is the other and the helper raises integer_power's error.
    want = _power_outcome(integer_power, base, exponent)
    assert _power_outcome(pow, base, exponent) == want, (base, exponent)
    if want[0] == "ok":
        assert _power_outcome(_power, base, exponent) == want, (base, exponent)
    else:
        with pytest.raises(NonFiniteError, match="^integer_power"):
            _power(base, exponent)


@given(st.builds(complex, power_parts, power_parts), st.integers(0, 100))
@settings(max_examples=1000, deadline=None)
@example(complex(-0.0, 0.0), 1)
@example(complex(1e154, 1e154), 2)
@example(complex(0.0, -5e-324), 3)
@example(complex(1.0000001, -1e-300), 100)
def test_complex_power_is_integer_power_bit_for_bit(base, exponent):
    _assert_power_is_integer_power(base, exponent)


def test_complex_power_on_a_grid_of_special_bases():
    parts = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -0.7, 1.0000001, -1.5,
             1e154, -1e300, 1.7976931348623157e308)
    for re_part in parts:
        for im_part in parts:
            for exponent in range(101):
                _assert_power_is_integer_power(complex(re_part, im_part), exponent)


@pytest.mark.parametrize("exponent", [101, 150])
def test_power_beyond_100_is_integer_power(exponent):
    for base in (complex(1.0001, -0.002), complex(-0.0, 0.999), complex(3.0, 4.0)):
        assert _power_outcome(_power, base, exponent) == \
            _power_outcome(integer_power, base, exponent)


@given(st.floats(0.01, 10.0), st.floats(0.01, 0.99), st.integers(0, 6))
@settings(max_examples=100)
def test_error_bound_functional_equation(c, q, k):
    nxt = error_bound(c, q, k + 1)
    cur = error_bound(c, q, k)
    rhs = cur ** 4 / c ** 3
    if rhs == 0.0 or math.isinf(rhs):
        return  # saturated regimes carry no information
    assert nxt == pytest.approx(rhs, rel=1e-12)


@given(root_systems(m_max=4, box=2.0), st.integers(0, 2 ** 16 - 1))
@settings(max_examples=60)
def test_frozen_indices_bitwise_preserved_under_any_mask(rs, seed):
    poly = poly_from_roots(rs)
    approx = tuple(r + 0.05 + 0.025j for r in rs.roots)
    mask = [(seed >> i) & 1 == 1 for i in range(rs.m)]
    assume(not all(mask))
    out = gek_step(poly, approx, rs.multiplicities, frozen=mask)
    for i, fr in enumerate(mask):
        if fr:
            assert struct.pack("<dd", out[i].real, out[i].imag) == \
                struct.pack("<dd", approx[i].real, approx[i].imag)


@given(root_systems(m_max=5, box=2.0))
@settings(max_examples=60)
def test_deflation_helpers_empty_cases_and_consistency(rs):
    approx = tuple(r + 0.11 for r in rs.roots)
    if rs.m == 1:
        assert q_log_derivative(approx, rs.multiplicities, 0) == 0
        assert q_product(approx, rs.multiplicities, 0) == 1
    else:
        # the product's log-derivative matches the explicit sum
        for i in range(rs.m):
            explicit = sum(
                rs.multiplicities[j] / (approx[i] - approx[j])
                for j in range(rs.m) if j != i
            )
            assert q_log_derivative(approx, rs.multiplicities, i) == \
                pytest.approx(explicit, rel=1e-12)


def _scan_collisions(values, limit, frozen):
    # The full scan alone, as the solver ran it before the screen: the first
    # pair (j, i) within the limit, in order of i and then j, where not both
    # are frozen.
    for i in range(len(values)):
        for j in range(i):
            if not (frozen[i] and frozen[j]) and abs(values[i] - values[j]) <= limit:
                return j, i
    return None


#: Offsets from a point, in units of the limit, that put a second point on
#: either side of it: at limit * (1 +- 2^-52) along an axis, at a real gap in
#: (limit, 2 * limit] with an imaginary one too small to matter, straight
#: above it (equal real parts, as for conjugates), and at other angles.
_PLANTED = (
    complex(1 - 2 ** -52, 0), complex(1 + 2 ** -52, 0), complex(1.0, 0.0),
    complex(-1 + 2 ** -52, 0), complex(0, 1 - 2 ** -52), complex(0, -1 - 2 ** -52),
    complex(1.5, 0.0), complex(2.0, 0.0), complex(1 + 2 ** -40, 1e-9),
    complex(0, 0.5), complex(0, 3.0), 0j,
    complex(0.6, 0.8), complex(0.6, 0.8 + 2 ** -50), complex(-0.7071, 0.7071),
)


@st.composite
def collision_cases(draw):
    """A vector, frozen flags and a limit, scaled by 2^k, with points planted
    near the limit from others; some with a third point between two
    colliding ones in real part but far off in imaginary part."""
    k = draw(st.integers(-40, 40))
    limit = math.ldexp(draw(st.floats(0.5, 1.0)), k)
    spread = draw(st.sampled_from((2.0, 8.0, 64.0)))
    coordinate = st.floats(-spread, spread)
    points = [limit * complex(draw(coordinate), draw(coordinate))
              for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 4))):
        base = points[draw(st.integers(0, len(points) - 1))]
        offset = draw(st.sampled_from(_PLANTED))
        if draw(st.booleans()):
            offset = -offset.conjugate()
        points.append(base + limit * offset)
    if draw(st.booleans()):
        # A and C collide; B lies between them in real part, far off in
        # imaginary part, so the screen must look past a neighbour
        a = points[draw(st.integers(0, len(points) - 1))]
        points += [a + limit * complex(0.4, 50.0), a + limit * complex(0.8, 0.5)]
    order = draw(st.permutations(range(len(points))))
    values = tuple(points[i] for i in order)
    frozen = tuple(draw(st.lists(st.booleans(), min_size=len(values),
                                 max_size=len(values))))
    return values, frozen, limit


@given(collision_cases())
@settings(max_examples=400, deadline=None)
@example(((0j, complex(0.4, 50.0), complex(0.8, 0.5)), (False,) * 3, 1.0))
@example(((0j, complex(1.0, 0.0), complex(0.0, 1.0)), (True, True, False), 1.0))
@example(((0j, complex(1 + 2 ** -52, 0.0), complex(1.0, 1e300)), (False,) * 3, 1.0))
# equal values, frozen and not: the screen tells them apart by value only
@example(((5 + 0j, 5 + 0j, 5 + 0j), (False, True, True), 1.0))
@example(((5 + 0j, 0j, 5 + 0j), (True, False, True), 1.0))
@example(((5 + 0j, 0j, 5.5 + 0j, 5 + 0j), (True, False, False, True), 1.0))
def test_screened_collision_check_is_the_full_scan(case):
    values, frozen, limit = case
    assert _first_collision(values, limit, frozen) == _scan_collisions(values, limit, frozen)


@given(collision_cases())
@settings(max_examples=200, deadline=None)
def test_root_system_rejects_as_its_full_scan_did(case):
    roots = case[0]
    assert root_system_outcome(roots) == ref_root_system_outcome(roots)


def test_collision_screen_looks_past_a_neighbour_in_real_part():
    # A and C are 0.94 * limit apart; B sits between them in real part but
    # 50 limits above.  Sorted by real part the order is A, B, C, so a
    # screen that tested only neighbours would miss (A, C).
    values = (complex(0.8, 0.5), 0j, complex(0.4, 50.0))
    assert _first_collision(values, 1.0) == (0, 1)
    # a hit on a pair of frozen indices is passed over
    assert _first_collision(values, 1.0, (True, True, False)) is None
