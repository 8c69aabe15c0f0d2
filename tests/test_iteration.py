import math
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from multiroots import (
    CollisionError,
    MonicPolynomial,
    MultirootsError,
    NonFiniteError,
    ResidualZeroError,
    RootSystem,
    SingularDenominatorError,
    SolveConfig,
    SolveStatus,
    UpdateMode,
    ek_step,
    eval_with_derivative,
    gek_step,
    poly_from_roots,
    q_log_derivative,
    s_value,
    solve,
)
from multiroots import iteration, polynomial, rootsystem
from multiroots.iteration import build_step_workspace, q_product
from multiroots.polynomial import integer_power, require_finite
from multiroots.rootsystem import _collision_limit
from conftest import (
    DEMO_INITIAL,
    DEMO_K1_ROW,
    DEMO_MULTS,
    DEMO_ROOTS,
    continuous_system,
    gaussian_integer_system,
    perturbed,
)
from test_golden_traces import RING_CONFIG, ring_problem, trace_digest


def bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


class TestQLogDerivative:
    def test_single_approximation_empty_sum(self):
        assert q_log_derivative((5 + 2j,), (4,), 0) == 0

    def test_two_point_single_term(self):
        assert q_log_derivative((0, 1), (1, 1), 0) == -1

    def test_three_point_sum_against_exact_rational(self):
        values = (-3.0, 0.1, 4.0)
        got = q_log_derivative(values, (2, 1, 3), 0)
        # oracle: exact rational arithmetic on the binary64 inputs
        exact = (Fraction(1) / (Fraction(-3.0) - Fraction(0.1))
                 + Fraction(3) / (Fraction(-3.0) - Fraction(4.0)))
        assert got.imag == 0
        assert got.real == pytest.approx(float(exact), rel=1e-15)
        # decimal-arithmetic value quoted to 18 digits
        assert got.real == pytest.approx(-0.751152073732718894, rel=1e-12)

    def test_collision_raises(self):
        with pytest.raises(CollisionError):
            q_log_derivative((1.0, 1.0 + 1e-15), (1, 1), 0)


class TestQProduct:
    def test_single_approximation_empty_product(self):
        assert q_product((3 - 1j,), (2,), 0) == 1

    def test_cube_of_difference(self):
        assert q_product((0, 2), (1, 3), 0) == -8

    def test_mixed_powers_against_exact_rational(self):
        values = (-3.0, 0.1, 4.0)
        got = q_product(values, (2, 1, 3), 1)
        exact = ((Fraction(0.1) - Fraction(-3.0)) ** 2
                 * (Fraction(0.1) - Fraction(4.0)) ** 3)
        assert got.real == pytest.approx(float(exact), rel=1e-15)
        # decimal arithmetic gives 9.61 * (-59.319) = -570.05559 exactly
        assert got.real == pytest.approx(-570.05559, rel=1e-12)

    def test_collision_raises(self):
        with pytest.raises(CollisionError):
            q_product((2.0, 2.0 + 1e-14), (1, 1), 1)


class TestSValue:
    def test_double_root_from_one_side(self):
        # x^2 - 10x + 25 at 4: A'/A = -2/1; empty deflation sum
        poly = MonicPolynomial((-10, 25))
        got = s_value(poly, (4.0,), (2,), 0)
        assert got == -2
        # partial-fraction identity: alpha/(x - root) = 2/(4-5)
        assert got == pytest.approx(2 / (4 - 5), rel=1e-15)

    def test_exact_root_signals_residual_zero(self):
        poly = poly_from_roots(RootSystem((0, 1), (1, 1)))
        with pytest.raises(ResidualZeroError):
            s_value(poly, (0.5, 1.0), (1, 1), 1)

    def test_partial_fraction_identity_on_fixture(self, demo_poly):
        approx = tuple(r + 0.1 for r in DEMO_ROOTS)
        got = s_value(demo_poly, approx, DEMO_MULTS, 2)
        direct = sum(
            a / (approx[2] - r) for a, r in zip(DEMO_MULTS, DEMO_ROOTS)
        ) - q_log_derivative(approx, DEMO_MULTS, 2)
        assert got == pytest.approx(direct, rel=1e-10)


class TestDeflationHelperArguments:
    # index 5 of 3 used to raise IndexError, index -1 ZeroDivisionError (it
    # paired vec[-1] with itself), and a short multiplicity list IndexError
    @pytest.mark.parametrize("index,mults", [
        (5, DEMO_MULTS), (3, DEMO_MULTS), (-1, DEMO_MULTS), (1.5, DEMO_MULTS),
        (0, DEMO_MULTS[:2]), (0, DEMO_MULTS + (1,)),
    ])
    def test_index_and_length_checked(self, demo_poly, index, mults):
        approx = (-3.0, 0.1, 4.0)
        for call in (lambda: q_log_derivative(approx, mults, index),
                     lambda: q_product(approx, mults, index),
                     lambda: s_value(demo_poly, approx, mults, index)):
            with pytest.raises(ValueError, match="out of range|3 approximations but"):
                call()


# The loops the deflation helpers used to carry, kept as a test-local
# reference: the library now forms the helpers' row with the steps' pair
# terms and reduces it the same way, and must give the same bits.  A
# collision raises the solver's message, which names the lower index first.
def _ref_collision(vec, a, b, limit):
    j, i = sorted((a, b))
    return CollisionError(
        f"approximations {j} and {i} are within {limit:.3e} "
        f"of each other: {vec[j]!r} ~ {vec[i]!r}"
    )


def _ref_q_log_derivative(values, multiplicities, index):
    vec = iteration._as_vector(values)
    limit = _collision_limit(vec)
    total = complex(0.0)
    for j in range(len(vec)):
        if j == index:
            continue
        diff = vec[index] - vec[j]
        if abs(diff) <= limit:
            raise _ref_collision(vec, index, j, limit)
        total += multiplicities[j] / diff
    return total


def _ref_q_product(values, multiplicities, index):
    vec = iteration._as_vector(values)
    limit = _collision_limit(vec)
    prod = complex(1.0)
    for l in range(len(vec)):
        if l == index:
            continue
        diff = vec[index] - vec[l]
        if abs(diff) <= limit:
            raise _ref_collision(vec, index, l, limit)
        prod *= integer_power(diff, multiplicities[l])
    require_finite(prod, "deflating product")
    return prod


def _helper_outcome(helper, *args):
    try:
        return "ok", bits(helper(*args))
    except MultirootsError as exc:
        return type(exc).__name__, str(exc)


class TestDeflationHelpersKeepTheirBits:
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_bitwise_equal_to_reference_loops(self, complex_values):
        rng = np.random.default_rng(2000 + complex_values)
        for m in range(1, 13):
            for _ in range(4):
                half = 0.5 * m + 1.0
                values = tuple(
                    complex(rng.uniform(-half, half),
                            rng.uniform(-half, half) if complex_values else 0.0)
                    for _ in range(m)
                )
                mults = tuple(int(a) for a in rng.integers(1, 4, m))
                for i in range(m):
                    assert (_helper_outcome(q_log_derivative, values, mults, i)
                            == ("ok", bits(_ref_q_log_derivative(values, mults, i))))
                    assert (_helper_outcome(q_product, values, mults, i)
                            == ("ok", bits(_ref_q_product(values, mults, i))))

    def test_collision_matches_reference(self):
        values, mults = (3.0, 1.0, 1.0 + 1e-15), (2, 1, 1)
        for helper, ref in ((q_log_derivative, _ref_q_log_derivative),
                            (q_product, _ref_q_product)):
            got = _helper_outcome(helper, values, mults, 1)
            assert got == _helper_outcome(ref, values, mults, 1)
            assert got[0] == "CollisionError"
            assert got[1].startswith("approximations 1 and 2 are within")

    def test_overflowing_power_raises_like_the_workspace(self):
        # (0 - 1e8)**40 overflows binary64.  The sum alone is finite, and
        # the reference loop returns it; the shared row forms the power and
        # raises, as a workspace build or a step at this vector does.
        values, mults = (0.0, 1e8), (1, 40)
        assert _ref_q_log_derivative(values, mults, 0) == -4e-07
        poly = poly_from_roots(RootSystem((0, 1), mults))
        for call in (lambda: q_log_derivative(values, mults, 0),
                     lambda: q_product(values, mults, 0),
                     lambda: build_step_workspace(poly, values, mults),
                     lambda: gek_step(poly, values, mults)):
            with pytest.raises(NonFiniteError, match="integer_power"):
                call()


def _row_outcome(reduce, vec, mults, j):
    try:
        qlog, qprod = reduce(vec, mults, j)
    except MultirootsError as exc:
        return type(exc).__name__, str(exc)
    return "ok", bits(qlog), bits(qprod)


def _reference_row_sums(vec, mults, j):
    return iteration._reduce_row(iteration._row(vec, mults, j))


class TestRowSums:
    # `_row_sums` forms each power inline and re-runs a row on the reference
    # path (`_row`, `_reduce_row`) only where a power is not finite; either
    # way it has the reference's bits and first error.

    def outcomes(self, monkeypatch, vec, mults):
        vec = tuple(complex(v) for v in vec)
        reruns = []
        counted = iteration._row

        def counting(*args):
            reruns.append(args[2])
            return counted(*args)

        monkeypatch.setattr(iteration, "_row", counting)
        got = [_row_outcome(iteration._row_sums, vec, mults, j) for j in range(len(vec))]
        reruns_of_fast_path = list(reruns)
        want = [_row_outcome(_reference_row_sums, vec, mults, j) for j in range(len(vec))]
        assert got == want
        return got, reruns_of_fast_path

    @pytest.mark.parametrize("seed", range(4))
    def test_finite_rows_match_the_reference_without_a_rerun(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        m = 9
        vec = rng.uniform(-2, 2, m) + 1j * rng.uniform(-2, 2, m) * (seed % 2)
        # multiplicities above 100 go to integer_power, the others to **
        mults = tuple(int(a) for a in rng.choice([1, 2, 3, 7, 100, 101, 150], m))
        vec = 1 + 0.01 * vec  # |d| < 0.06, so every power above 100 stays finite
        got, reruns = self.outcomes(monkeypatch, vec, mults)
        assert all(outcome[0] == "ok" for outcome in got)
        assert reruns == []

    def test_overflowing_power(self, monkeypatch):
        # (0 - 1e8)**40 raises OverflowError in **; integer_power names it
        got, reruns = self.outcomes(monkeypatch, (0.0, 1e8), (1, 40))
        assert got[0][0] == "NonFiniteError"
        assert got[0][1].startswith("integer_power")
        assert reruns == [0]

    def test_power_beyond_100_that_overflows(self, monkeypatch):
        got, reruns = self.outcomes(monkeypatch, (0.0, 10.0), (1, 400))
        assert got[0][0] == "NonFiniteError"
        assert got[0][1].startswith("integer_power")
        assert reruns == [0]

    def test_power_that_is_nan_without_overflow_error(self, monkeypatch):
        # (1e300 + 1e300j)**3 is nan + nanj and ** raises nothing; the
        # product carries the nan to the end of the row, where the row is
        # re-run and integer_power raises
        d = complex(1e300, 1e300)
        assert not math.isfinite((d ** 3).real)
        got, reruns = self.outcomes(monkeypatch, (0.0, d), (2, 3))
        assert got[0][0] == "NonFiniteError"
        assert got[0][1] == f"integer_power overflowed: base={-d!r}"
        assert reruns == [0, 1]

    def test_first_error_is_the_reference_first(self, monkeypatch):
        # pair (0, 1) is nan without an error, pair (0, 2) raises in
        # integer_power: the reference raises at pair (0, 1) first
        vec = (0.0, complex(1e300, 1e300), 1e10)
        got, _ = self.outcomes(monkeypatch, vec, (1, 3, 101))
        assert got[0] == ("NonFiniteError",
                          f"integer_power overflowed: base={-complex(1e300, 1e300)!r}")

    def test_product_overflow_with_finite_powers(self, monkeypatch):
        # every factor is finite but the product is not: the rerun gives
        # the same non-finite product, and `_deflate` raises on it
        got, reruns = self.outcomes(monkeypatch, (0.0, 1e200, -1e200), (1, 1, 1))
        assert got[0][0] == "ok" and not _finite(
            complex(*struct.unpack("<dd", got[0][2])))
        assert reruns == [0, 1, 2]


def _finite(z):
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _correction_sums(values, terms):
    vec = iteration._as_vector(values)
    return [iteration._neighbour_sum(vec, i, terms) for i in range(len(vec))]


class TestStepWorkspace:
    def test_frozen_slots_carry_none(self, demo_poly):
        approx = (-3.0, 0.1, 4.0)
        svals, terms = build_step_workspace(demo_poly, approx, DEMO_MULTS,
                                            frozen=(False, True, False))
        assert svals[1] is None
        assert [t[0] for t in terms] == [0, 2]
        sums = _correction_sums(approx, terms)
        assert all(_finite(z) for z in (svals[0], svals[2], sums[0], sums[2]))

    def test_landed_index_has_no_s_value_but_feeds_other_sums(self, demo_poly):
        # an exact root that is not frozen yet: A = 0, so S is undefined and
        # its correction-sum term is the analytic limit 0, but its position
        # still feeds the other indices' products and sums
        approx = (-3.0, 1.0, 4.0)
        svals, terms = build_step_workspace(demo_poly, approx, DEMO_MULTS)
        assert svals[1] is None
        assert _finite(svals[0]) and _finite(svals[2])
        assert [t[0] for t in terms] == [0, 2]
        assert all(_finite(z) for z in _correction_sums(approx, terms))

    def test_terms_hold_numerators_and_products(self, demo_poly):
        approx = (-3.0, 0.1, 4.0)
        svals, terms = build_step_workspace(demo_poly, approx, DEMO_MULTS)
        for j, numer, qprod, x_j in terms:
            value, _ = eval_with_derivative(demo_poly, approx[j])
            alpha = DEMO_MULTS[j]
            assert bits(numer) == bits(alpha * value * integer_power(svals[j] / alpha,
                                                                     alpha - 1))
            assert bits(qprod) == bits(q_product(approx, DEMO_MULTS, j))
            assert x_j == approx[j]

    def test_single_active_index_has_no_terms(self, demo_poly):
        svals, terms = build_step_workspace(demo_poly, (-3.0, 0.1, 4.0), DEMO_MULTS,
                                            frozen=(True, False, True))
        assert terms == [] and _finite(svals[1])

    def test_matches_operation_level_helpers(self, demo_poly):
        approx = (-3.0, 0.1, 4.0)
        svals, _ = build_step_workspace(demo_poly, approx, DEMO_MULTS)
        for i in range(3):
            assert bits(svals[i]) == bits(s_value(demo_poly, approx, DEMO_MULTS, i))


class TestFrozenFlags:
    # a shorter list used to raise a bare IndexError and a longer one was
    # silently cut to length
    @pytest.mark.parametrize("mode", list(UpdateMode))
    @pytest.mark.parametrize("frozen", [(False, True), (False, True, False, False)])
    def test_wrong_length_rejected(self, demo_poly, mode, frozen):
        approx = (-3.0, 0.1, 4.0)
        simple = poly_from_roots(RootSystem((0, 1, 2), (1, 1, 1)))
        cfg = SolveConfig(update_mode=mode)
        message = f"3 approximations but {len(frozen)} frozen flags"
        for call in (lambda: gek_step(demo_poly, approx, DEMO_MULTS, cfg, frozen),
                     lambda: ek_step(simple, approx, cfg, frozen),
                     lambda: build_step_workspace(demo_poly, approx, DEMO_MULTS,
                                                  frozen, cfg)):
            with pytest.raises(ValueError, match=message):
                call()


class TestSolveConfig:
    def test_defaults_are_valid(self):
        cfg = SolveConfig()
        assert cfg.max_iterations == 100
        assert cfg.step_tolerance == 1e-14
        assert cfg.residual_tolerance == 1e-12
        assert cfg.update_mode is UpdateMode.TOTAL_STEP

    @pytest.mark.parametrize("kwargs", [
        {"max_iterations": 0},
        {"step_tolerance": 0.0},
        {"residual_tolerance": -1.0},
        {"update_mode": "total"},
        {"max_iterations": 2.5},
        {"max_iterations": 3.0},
        {"max_iterations": True},
        {"max_iterations": float("inf")},
        {"step_tolerance": float("inf")},
        {"step_tolerance": float("nan")},
        {"residual_tolerance": float("inf")},
        {"step_tolerance": 10 ** 400},
        {"residual_tolerance": 10 ** 400},
        {"step_tolerance": True},
        {"residual_tolerance": True},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolveConfig(**kwargs)


class TestGekStep:
    def test_reproduces_published_first_iterate(self, demo_poly):
        out = gek_step(demo_poly, DEMO_INITIAL, DEMO_MULTS)
        for got, want in zip(out, DEMO_K1_ROW):
            assert got.imag == 0
            assert got.real == pytest.approx(want, rel=1e-12)

    def test_single_cluster_is_exact_in_one_step(self):
        # multiplicity-aware Newton: S = n/(x - root) exactly for one root
        poly = MonicPolynomial((-10, 25))
        out = gek_step(poly, (4.0,), (2,))
        assert out == (5 + 0j,)

    def test_matches_simple_root_formula_on_unit_multiplicities(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            rs = continuous_system(rng, m_max=5, alpha_max=1, box=2.0,
                                   min_separation=0.6)
            poly = poly_from_roots(rs)
            approx = perturbed(rng, rs.roots, 0.1)
            g = gek_step(poly, approx, (1,) * rs.m)
            e = ek_step(poly, approx)
            for a, b in zip(g, e):
                assert a == pytest.approx(b, rel=1e-12)

    def test_frozen_components_bitwise_preserved(self, demo_poly):
        approx = (-2.25 + 0.125j, 0.875, 3.0625)
        frozen = (False, True, False)
        out = gek_step(demo_poly, approx, DEMO_MULTS, frozen=frozen)
        assert bits(out[1]) == bits(approx[1])
        assert out[0] != approx[0] and out[2] != approx[2]

    def test_total_step_order_independent(self, demo_poly):
        # assembling components in reverse index order changes nothing
        approx = (-3.0, 0.1, 4.0)
        svals, terms = build_step_workspace(demo_poly, approx, DEMO_MULTS)
        forward = gek_step(demo_poly, approx, DEMO_MULTS)
        reverse = [None] * 3
        for i in (2, 1, 0):
            den = svals[i] + iteration._neighbour_sum(approx, i, terms)
            reverse[i] = approx[i] - DEMO_MULTS[i] / den
        assert tuple(reverse) == forward

    def test_collision_guard(self, demo_poly):
        with pytest.raises(CollisionError):
            gek_step(demo_poly, (-3.0, -3.0, 4.0), DEMO_MULTS)

    def test_singular_denominator(self):
        # S = 1/(x - c) becomes numerically zero for astronomically far x
        poly = MonicPolynomial((-1,))  # x - 1
        with pytest.raises(SingularDenominatorError):
            gek_step(poly, (1e305,), (1,))

    def test_serial_mode_uses_updated_components(self, demo_poly):
        cfg_serial = SolveConfig(update_mode=UpdateMode.SERIAL)
        total = gek_step(demo_poly, DEMO_INITIAL, DEMO_MULTS)
        serial = gek_step(demo_poly, DEMO_INITIAL, DEMO_MULTS, cfg_serial)
        assert serial[0] == total[0]  # first index sees the same vector
        assert serial[1] != total[1]  # later indices see updated neighbors

    def test_multiplicity_sum_must_match_degree(self, demo_poly):
        with pytest.raises(ValueError):
            gek_step(demo_poly, (-3.0, 0.1, 4.0), (2, 1, 2))

    @pytest.mark.parametrize("mults", [(2, True, 3), (2.0, 1, 3), (2, 1.5, 2.5),
                                       (2, 0, 4), (3, -1, 4)])
    def test_multiplicities_checked_like_root_systems(self, demo_poly, mults):
        with pytest.raises(ValueError, match="multiplicities must be"):
            gek_step(demo_poly, DEMO_INITIAL, mults)
        with pytest.raises(ValueError, match="multiplicities must be"):
            RootSystem(DEMO_ROOTS, mults)

    def test_integer_like_multiplicities_accepted(self, demo_poly):
        mults = tuple(np.int64(a) for a in DEMO_MULTS)
        assert gek_step(demo_poly, DEMO_INITIAL, mults) == \
            gek_step(demo_poly, DEMO_INITIAL, DEMO_MULTS)


class TestEkStep:
    def test_linear_newton_is_exact(self):
        poly = MonicPolynomial((-7,))  # x - 7
        assert ek_step(poly, (123.0,)) == (7 + 0j,)

    def test_agrees_with_generalized_step(self):
        rs = RootSystem((0, 1, 2), (1, 1, 1))
        poly = poly_from_roots(rs)
        approx = (-0.2, 1.1, 2.3)
        e = ek_step(poly, approx)
        g = gek_step(poly, approx, (1, 1, 1))
        for a, b in zip(e, g, strict=True):
            assert a == pytest.approx(b, rel=1e-12)

    def test_one_step_contraction_from_moderate_error(self):
        poly = poly_from_roots(RootSystem((0, 1), (1, 1)))
        out = ek_step(poly, (0.1, 0.9))
        assert abs(out[0] - 0) < 1e-3
        assert abs(out[1] - 1) < 1e-3
        # oracle: a literal transcription of the simple-root formula
        def literal(i, vals):
            a_i, ap_i = eval_with_derivative(poly, vals[i])
            others = [j for j in range(len(vals)) if j != i]
            wlog = sum(1 / (vals[i] - vals[l]) for l in others)
            corr = 0j
            for j in others:
                a_j, _ = eval_with_derivative(poly, vals[j])
                w_j = np.prod([vals[j] - vals[l]
                               for l in range(len(vals)) if l != j])
                corr += a_j / ((vals[i] - vals[j]) ** 2 * w_j)
            return vals[i] - a_i / (ap_i - a_i * wlog + a_i * corr)
        for i in range(2):
            assert out[i] == pytest.approx(literal(i, (0.1, 0.9)), rel=1e-12)

    def test_vector_length_must_equal_degree(self):
        poly = MonicPolynomial((0, -1))
        with pytest.raises(ValueError):
            ek_step(poly, (0.5,))

    def test_frozen_components_bitwise_preserved(self):
        poly = poly_from_roots(RootSystem((0, 1, 2), (1, 1, 1)))
        approx = (0.125, 1.0625, 1.875)
        out = ek_step(poly, approx, frozen=(True, False, True))
        assert bits(out[0]) == bits(approx[0])
        assert bits(out[2]) == bits(approx[2])


# Reference sweeps that evaluate a point at every use: `_ref_ek_update`
# evaluates every active neighbour again for each index, and the serial
# loops rebuild everything, evaluations included, for each component.  The
# library must give the same bits and raise the same errors with one
# evaluation per point and sweep.
def _ref_ek_update(poly, vec, index, flags, limit):
    value, deriv = eval_with_derivative(poly, vec[index])
    m = len(vec)
    wlog = complex(0.0)
    for l in range(m):
        if l == index:
            continue
        diff = vec[index] - vec[l]
        if abs(diff) <= limit:
            raise CollisionError(
                f"approximations {index} and {l} are within {limit:.3e}"
            )
        wlog += 1.0 / diff
    neighbor = complex(0.0)
    for j in range(m):
        if j == index or flags[j]:
            continue
        a_j, _ = eval_with_derivative(poly, vec[j])
        diff = vec[index] - vec[j]
        neighbor += a_j / (_ref_deflating_product(vec, j) * diff * diff)
    den = deriv - value * wlog + value * neighbor
    if abs(den) <= iteration.SINGULAR_DENOMINATOR_FLOOR:
        raise SingularDenominatorError(
            f"denominator {abs(den):.3e} at index {index} is numerically zero"
        )
    new = vec[index] - value / den
    require_finite(new, f"updated approximation {index}")
    return new


def _ref_deflating_product(vec, j):
    w_j = complex(1.0)
    for l in range(len(vec)):
        if l != j:
            w_j *= vec[j] - vec[l]
    return require_finite(w_j, "deflating product")


def _ref_ek_kernel(poly, vec, flags):
    # What a sweep forms before any update, in the kernel's order: per
    # active j its evaluation and its deflating product, checked, even
    # where no other index needs it (a lone active j).
    for j in range(len(vec)):
        if not flags[j]:
            eval_with_derivative(poly, vec[j])
            _ref_deflating_product(vec, j)


def _ref_ek_step(poly, values, cfg, flags):
    vec = iteration._as_vector(values)
    m = len(vec)
    limit = _collision_limit(vec)
    iteration._check_collisions(vec, flags)
    if cfg.update_mode is UpdateMode.SERIAL:
        current = list(vec)
        for i in range(m):
            if flags[i]:
                continue
            lim = _collision_limit(current)
            iteration._check_collisions(current, flags)
            _ref_ek_kernel(poly, current, flags)
            current[i] = _ref_ek_update(poly, current, i, flags, lim)
        return tuple(current)
    _ref_ek_kernel(poly, vec, flags)
    return tuple(
        vec[i] if flags[i] else _ref_ek_update(poly, vec, i, flags, limit)
        for i in range(m)
    )


def _ref_gek_sweep(poly, vec, mults, cfg, flags, indices):
    # Every quantity at ``vec`` formed afresh, in the kernel's order: the
    # collision scan; per active j its evaluation, deflation sum and
    # product; s-values and the numerators
    # alpha_j A_j (s_j / alpha_j)**(alpha_j - 1); then, for each index of
    # ``indices`` in turn, its correction sum and its update.
    m = len(vec)
    iteration._check_collisions(vec, flags)
    active = [j for j in range(m) if not flags[j]]
    evals, deflation = {}, {}
    for j in active:
        evals[j] = eval_with_derivative(poly, vec[j])
        deflation[j] = q_log_derivative(vec, mults, j), q_product(vec, mults, j)
    svals, numers = {}, {}
    for j in active:
        value, deriv = evals[j]
        if abs(value) > cfg.residual_tolerance:
            svals[j] = deriv / value - deflation[j][0]
            if len(active) >= 2:
                numers[j] = mults[j] * value * integer_power(svals[j] / mults[j],
                                                             mults[j] - 1)
    new = list(vec)
    for i in indices:
        total = complex(0.0)
        for j in numers:
            if j != i:
                diff = vec[j] - vec[i]
                total += numers[j] / (deflation[j][1] * diff * diff)
        require_finite(total, "correction sum")
        if i not in svals:
            raise ResidualZeroError(i, 0.0)
        den = svals[i] + total
        if abs(den) <= iteration.SINGULAR_DENOMINATOR_FLOOR * max(1.0, mults[i]):
            raise SingularDenominatorError(
                f"denominator {abs(den):.3e} at index {i} is numerically zero"
            )
        new[i] = require_finite(vec[i] - mults[i] / den,
                                f"updated approximation {i}")
    return new


def _ref_gek_step(poly, values, mults, cfg, flags):
    vec = iteration._as_vector(values)
    active = [i for i in range(len(vec)) if not flags[i]]
    if cfg.update_mode is UpdateMode.SERIAL:
        for i in active:
            vec = _ref_gek_sweep(poly, vec, mults, cfg, flags, [i])
        return tuple(vec)
    return tuple(_ref_gek_sweep(poly, vec, mults, cfg, flags, active))


def _outcome(step, *args):
    """The bits of a sweep's result, or the error it raised."""
    try:
        return "ok", tuple(bits(z) for z in step(*args))
    except MultirootsError as exc:
        return type(exc).__name__, str(exc)


def _both_kinds(poly, approx, mults, frozen, mode):
    """(library, reference) outcomes of gek_step and, on simple roots, ek_step."""
    cfg = SolveConfig(update_mode=mode)
    flags = tuple(frozen)
    pairs = [(_outcome(gek_step, poly, approx, mults, cfg, flags),
              _outcome(_ref_gek_step, poly, approx, mults, cfg, flags))]
    if all(a == 1 for a in mults):
        pairs.append((_outcome(ek_step, poly, approx, cfg, flags),
                      _outcome(_ref_ek_step, poly, approx, cfg, flags)))
    return pairs


def _random_case(rng, m, alpha_max, complex_roots):
    half = 0.5 * m + 1.0
    roots = []
    while len(roots) < m:
        z = complex(rng.uniform(-half, half),
                    rng.uniform(-half, half) if complex_roots else 0.0)
        if all(abs(z - r) >= 0.5 for r in roots):
            roots.append(z)
    mults = tuple(int(rng.integers(1, alpha_max + 1)) for _ in range(m))
    poly = poly_from_roots(RootSystem(tuple(roots), mults))
    if complex_roots:
        approx = perturbed(rng, roots, 0.15)
    else:
        approx = tuple(r + rng.uniform(-0.1, 0.1) for r in roots)
    frozen = tuple(bool(f) for f in rng.random(m) < 0.3)
    return poly, approx, mults, frozen


class TestOneEvaluationPerPoint:
    @pytest.mark.parametrize("mode", list(UpdateMode))
    @pytest.mark.parametrize("complex_roots", [False, True])
    @pytest.mark.parametrize("alpha_max", [1, 3])
    def test_bitwise_equal_to_reevaluating_reference(self, mode, complex_roots,
                                                     alpha_max):
        rng = np.random.default_rng(1000 + 10 * alpha_max + complex_roots)
        finished = 0
        for m in range(1, 21):
            for _ in range(4):
                case = _random_case(rng, m, alpha_max, complex_roots)
                for got, want in _both_kinds(*case, mode):
                    assert got == want
                    finished += got[0] == "ok"
        assert finished >= 40  # most sweeps complete rather than raise

    @pytest.mark.parametrize("mode", list(UpdateMode))
    def test_landed_component(self, mode):
        # index 1 sits exactly on the root 1, where A = 0: the generalized
        # step's s-value is undefined there, while the simple-root
        # correction degenerates to Newton's and vanishes
        poly = poly_from_roots(RootSystem((0, 1, 2), (1, 1, 1)))
        approx = (0.125, 1.0, 1.875 + 0.25j)
        (gek, gek_ref), (ek, ek_ref) = _both_kinds(poly, approx, (1, 1, 1),
                                                   (False,) * 3, mode)
        assert gek == gek_ref and gek[0] == "ResidualZeroError"
        assert ek == ek_ref and ek[0] == "ok"
        assert ek[1][1] == bits(1.0 + 0j)

    @pytest.mark.parametrize("mode", list(UpdateMode))
    @pytest.mark.parametrize("approx,error", [
        ((0.25, 0.25 + 1e-14j, 2.5), "CollisionError"),
        ((1e200, -2e200, 3e200j), "NonFiniteError"),
    ])
    def test_guard_failures_match(self, mode, approx, error):
        poly = poly_from_roots(RootSystem((0, 1, 2), (1, 1, 1)))
        for got, want in _both_kinds(poly, approx, (1, 1, 1),
                                     (False,) * 3, mode):
            assert got == want
            assert got[0] == error

    @pytest.mark.parametrize("mode", list(UpdateMode))
    def test_non_finite_guards_keep_their_messages(self, mode):
        cfg = SolveConfig(update_mode=mode)
        # Component 0 is the only active one; components 1 and 2, frozen
        # 1e200 away on either side, make its deflating product overflow.
        poly = poly_from_roots(RootSystem((0, 1, 2), (1, 1, 1)))
        approx, flags = (0.1, 1e200, -1e200), (False, True, True)
        want = ("NonFiniteError", "deflating product is not finite: (-inf+0j)")
        assert _outcome(gek_step, poly, approx, (1,) * 3, cfg, flags) == want
        assert _outcome(ek_step, poly, approx, cfg, flags) == want
        assert _outcome(_ref_gek_step, poly, approx, (1,) * 3, cfg, flags) == want
        assert _outcome(_ref_ek_step, poly, approx, cfg, flags) == want
        # Five components within 3e-11 of each other where |A| ~ 1e300:
        # their products are tiny, so the neighbour sums are not finite.
        poly = MonicPolynomial((0, 0, 0, 0, 1e300))
        approx, flags = (0.0, 1e-11, 2e-11j, -1.5e-11, 3e-11 + 1e-11j), (False,) * 5
        (gek, gek_ref), (ek, ek_ref) = _both_kinds(poly, approx, (1,) * 5, flags, mode)
        assert gek == gek_ref == ("NonFiniteError",
                                  "correction sum is not finite: (nan+nanj)")
        assert ek == ek_ref == ("NonFiniteError",
                                "updated approximation 0 is not finite: (nan+nanj)")

    def test_serial_collision_with_moved_component(self):
        # The start vector passes the collision check, but component 0's
        # update lands 4e-13 from component 2, so the check before the
        # second build (or the second simple-root update) fires.
        poly = poly_from_roots(RootSystem((0, 1, 2), (1, 1, 1)))
        approx = (0.45 + 0.05j, 1.2 - 0.1j,
                  complex(-2.9302655233050627, -0.5782234153937388))
        flags = (False,) * 3
        gek_step(poly, approx, (1, 1, 1), SolveConfig(), flags)
        ek_step(poly, approx, SolveConfig(), flags)
        kinds = _both_kinds(poly, approx, (1, 1, 1), flags, UpdateMode.SERIAL)
        assert len(kinds) == 2
        for got, want in kinds:
            assert got == want
            assert got[0] == "CollisionError"
            assert got[1].startswith("approximations 0 and 2 are within")

    def test_serial_overflow_in_refreshed_row(self):
        # Component 2 is frozen about 5.09e7 away, just inside the range
        # where (x_0 - x_2)**40 is finite.  Component 0's update moves it
        # further out, so refreshing row 0 overflows that power.
        poly = poly_from_roots(RootSystem((0, 2, 5), (1, 1, 40)))
        mults = (1, 1, 40)
        approx = (1.7 + 0.1j, 1.2 - 0.1j, complex(-50859006.73154339))
        flags = (False, False, True)
        gek_step(poly, approx, mults, SolveConfig(), flags)
        cfg = SolveConfig(update_mode=UpdateMode.SERIAL)
        got = _outcome(gek_step, poly, approx, mults, cfg, flags)
        assert got == _outcome(_ref_gek_step, poly, approx, mults, cfg, flags)
        assert got[0] == "NonFiniteError"
        assert got[1].startswith("integer_power result is not finite")

    @pytest.mark.parametrize("frozen", [
        (False,) * 12,
        (True, False, False, True) + (False,) * 8,
        (False,) * 11 + (True,),
    ])
    def test_power_calls_per_serial_sweep(self, monkeypatch, frozen):
        m = 12
        mults = (1, 2, 3) * 4
        roots = tuple(2 * np.exp(2j * np.pi * k / m) for k in range(m))
        poly = poly_from_roots(RootSystem(roots, mults))
        approx = perturbed(np.random.default_rng(3), roots, 0.05)
        calls = []
        counted = iteration._power

        def counting(base, exponent):
            calls.append(exponent)
            return counted(base, exponent)

        monkeypatch.setattr(iteration, "_power", counting)
        gek_step(poly, approx, mults,
                 SolveConfig(update_mode=UpdateMode.SERIAL), frozen)
        active = [i for i in range(m) if not frozen[i]]
        a = len(active)

        def row_powers(j):
            # a pair (j, l) forms a power only for alpha_l > 1: a
            # simple root's factor is the difference itself
            return sum(mults[l] > 1 for l in range(m) if l != j)

        # The first build forms the pair terms of every active row; each
        # later one only those of the moved component's row and column:
        # O(m) powers per moved component, not O(a m).  Every component
        # but the last active one moves before a build.  Every build also
        # forms one correction-sum numerator per active index.
        first_build = sum(row_powers(j) for j in active)
        refresh = sum(row_powers(i) + (a - 1) * (mults[i] > 1) for i in active[:-1])
        assert len(calls) == first_build + refresh + a * a

    @pytest.mark.parametrize("mode", list(UpdateMode))
    @pytest.mark.parametrize("frozen", [
        (False,) * 6,
        (True, False, False, True, False, False),
        (False,) * 5 + (True,),
        (True,) * 5 + (False,),
    ])
    @pytest.mark.parametrize("mults", [(1,) * 6, (2, 1, 3, 1, 2, 1)])
    def test_evaluations_per_sweep(self, monkeypatch, mode, frozen, mults):
        roots = (-2, -1 + 1j, 0, 1 - 2j, 2, 1 + 2j)
        poly = poly_from_roots(RootSystem(roots, mults))
        approx = perturbed(np.random.default_rng(7), roots, 0.1)
        evaluated = []
        counted = iteration.eval_with_derivative

        def counting(p, z):
            evaluated.append(z)
            return counted(p, z)

        monkeypatch.setattr(iteration, "eval_with_derivative", counting)
        cfg = SolveConfig(update_mode=mode)
        steps = [lambda: gek_step(poly, approx, mults, cfg, frozen)]
        if mults == (1,) * 6:
            steps.append(lambda: ek_step(poly, approx, cfg, frozen))
        active = [i for i in range(6) if not frozen[i]]
        for step in steps:
            evaluated.clear()
            out = step()
            # a for a total sweep, 2a - 1 for a serial one: the starting
            # points once each, then every moved component but the last
            expected = [approx[i] for i in active]
            if mode is UpdateMode.SERIAL:
                expected += [out[i] for i in active[:-1]]
            assert evaluated == expected

    @pytest.mark.parametrize("mode", list(UpdateMode))
    @pytest.mark.parametrize("frozen", [
        (False,) * 6,
        (True, False, False, True, False, False),
        (True,) * 5 + (False,),
    ])
    @pytest.mark.parametrize("mults", [(1,) * 6, (2, 1, 3, 1, 2, 1)])
    def test_one_neighbour_sum_per_update(self, monkeypatch, mode, frozen, mults):
        # Each update forms the neighbour (or correction) sum of its own
        # index only: a sums per sweep, not one per active index and build.
        roots = (-2, -1 + 1j, 0, 1 - 2j, 2, 1 + 2j)
        poly = poly_from_roots(RootSystem(roots, mults))
        approx = perturbed(np.random.default_rng(7), roots, 0.1)
        summed = []
        counted = iteration._neighbour_sum

        def counting(vec, i, terms):
            summed.append(i)
            return counted(vec, i, terms)

        monkeypatch.setattr(iteration, "_neighbour_sum", counting)
        cfg = SolveConfig(update_mode=mode)
        steps = [lambda: gek_step(poly, approx, mults, cfg, frozen)]
        if mults == (1,) * 6:
            steps.append(lambda: ek_step(poly, approx, cfg, frozen))
        for step in steps:
            summed.clear()
            step()
            assert summed == [i for i in range(6) if not frozen[i]]


def _collision_outcome(check, *args):
    try:
        result = check(*args)
    except CollisionError as exc:
        return "CollisionError", str(exc)
    return "ok", result


def _scripted_sweep(vec, flags, moves):
    """`_serial_sweep` over ``vec``, each build made by the library's kernel,
    where component i moves to moves[i]."""
    ones = (1,) * len(vec)
    poly = MonicPolynomial((0.0,) * len(vec))

    def prepare(current, evals, rows, moved):
        iteration._deflate(poly, current, ones, flags, evals, rows, moved)

    def update(current, prepared, i):
        return moves[i]

    return iteration._serial_sweep(tuple(vec), flags, prepare, update)


def _ref_scripted_sweep(vec, flags, moves):
    # every pair checked before every build
    current = list(vec)
    for i in range(len(current)):
        if not flags[i]:
            iteration._check_collisions(current, flags)
            current[i] = moves[i]
    return tuple(current)


def _helper_check(vec, k):
    # the collision check of `q_log_derivative` at index k, its sum dropped
    q_log_derivative(vec, (1,) * len(vec), k)


class TestSerialCollisionCheck:
    # A serial sweep checks every pair before every build, as a build from
    # scratch would; errors name the first colliding pair of a full scan.

    @pytest.mark.parametrize("vec,flags,moves,first_words", [
        # component 1 lands next to component 0, a lower index
        ((0.0, 1.0, 3.0), (False,) * 3, (0.0, 5e-13, 3.0), "approximations 0 and 1 "),
        # component 0 lands next to component 2, a higher index; max|x| stays 3
        ((0.0, 1.0, 3.0), (False,) * 3, (3.0 - 2e-12, 1.0, 3.0), "approximations 0 and 2 "),
        # component 1 lands next to both 0 and 2: the lower pair comes first
        ((0.0, 1.0, 1.6e-12), (False,) * 3, (0.0, 8e-13, 1.6e-12), "approximations 0 and 1 "),
        # component 0 moves beyond max|x| = 1, so the limit doubles and the
        # unmoved pair (1, 2), 1.5e-12 apart, now collides; no later build
        # checks that pair for a move of its own
        ((1.0, 0.25, 0.25 + 1.5e-12), (False,) * 3, (2.0, 0.5, 0.3),
         "approximations 1 and 2 "),
        # the limit shrinks from 4e-12 to 1e-12, then component 1 collides
        ((4.0, 0.25, 0.25 + 5e-12), (False,) * 3, (1.0, 1.0 + 5e-13, 0.3),
         "approximations 0 and 1 "),
        # the frozen pair (1, 2) is skipped, whether the limit grows or not
        ((1.0, 0.25, 0.25 + 5e-13), (False, True, True), (2.0, 0.0, 0.0), None),
        ((1.0, 0.25, 0.25 + 5e-13, -1.0), (False, True, True, False),
         (0.5, 0.0, 0.0, -0.5), None),
    ])
    def test_same_error_as_checking_every_pair(self, vec, flags, moves, first_words):
        got = _collision_outcome(_scripted_sweep, vec, flags, moves)
        assert got == _collision_outcome(_ref_scripted_sweep, vec, flags, moves)
        if first_words is None:
            assert got[0] == "ok"
        else:
            assert got[0] == "CollisionError" and got[1].startswith(first_words)

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("frozen", [(False,) * 5, (True, False, True, True, False),
                                        (True,) * 5])
    def test_pairs_of_one_index_match_the_full_scan(self, k, frozen):
        # Every pair but those of k is at least 1 apart; k sits 1e-13 from
        # each other point in turn, so the full scan can fail only at k's
        # pairs, and the deflation helpers' check (only k active) must
        # fail there too.  k is active; the others' flags do not matter.
        flags = frozen[:k] + (False,) + frozen[k + 1:]
        base = [complex(j, 0.5 * j) for j in range(5)]
        for j in range(5):
            vec = list(base)
            vec[k] = base[j] + 1e-13 if j != k else base[k]
            want = _collision_outcome(iteration._check_collisions, vec, flags)
            assert _collision_outcome(_helper_check, vec, k) == want
            assert want[0] == ("ok" if j == k else "CollisionError")

    @pytest.mark.parametrize("helper", [q_log_derivative, q_product])
    def test_helpers_ignore_pairs_without_their_index(self, helper):
        # approximations 1 and 2 coincide; only index 0's pairs feed its sum
        # and product, so the helpers answer there and raise at 1 and 2
        vec, ones = (0.0, 5.0, 5.0), (1, 1, 1)
        assert helper(vec, ones, 0) == (-0.4 if helper is q_log_derivative else 25)
        for k in (1, 2):
            with pytest.raises(CollisionError, match="approximations 1 and 2 are within"):
                helper(vec, ones, k)

    def test_frozen_pairs_do_not_run_the_full_scan(self, monkeypatch):
        # The helpers at index 0 pass 1 and 2 as frozen: where those two
        # coincide, the screen's hit is a pair of frozen indices and the
        # scan of every pair must not run; where 0 coincides with one of
        # them, it runs once and names the pair.
        scans = []
        scan_pairs = rootsystem._scan_pairs

        def counted(*args):
            scans.append(args)
            return scan_pairs(*args)

        monkeypatch.setattr(rootsystem, "_scan_pairs", counted)
        assert q_product((0.0, 5.0, 5.0), (1, 1, 1), 0) == 25
        assert q_log_derivative((0.0, 5.0, 5.0), (1, 1, 1), 0) == -0.4
        assert scans == []
        with pytest.raises(CollisionError, match="approximations 0 and 2 are within"):
            q_product((5.0, 0.0, 5.0), (1, 1, 1), 0)
        assert len(scans) == 1
        # a build with two frozen approximations on one point scans nothing
        build_step_workspace(MonicPolynomial((0.0, 0.0, -1.0)), (0.5, 5.0, 5.0), (1, 1, 1),
                             (False, True, True))
        assert len(scans) == 1

    def test_s_value_ignores_pairs_without_its_index(self, demo_poly):
        vec = (0.5, 5.0, 5.0)
        value, deriv = eval_with_derivative(demo_poly, 0.5)
        assert s_value(demo_poly, vec, DEMO_MULTS, 0) == \
            deriv / value - _ref_q_log_derivative(vec, DEMO_MULTS, 0)
        with pytest.raises(CollisionError, match="approximations 1 and 2 are within"):
            s_value(demo_poly, vec, DEMO_MULTS, 2)


class TestSolve:
    @pytest.mark.parametrize("frozen_start", [False, True])
    def test_total_gek_builds_through_the_workspace_once_per_sweep(
            self, monkeypatch, demo_poly, demo_config, frozen_start):
        # `build_step_workspace` is the span point of the benchmark's
        # tracer (`iteration.workspace`), so a total-step generalized sweep
        # must reach it through the module global, once
        calls = []
        counted = iteration.build_step_workspace

        def counting(*args):
            calls.append(args[1])
            return counted(*args)

        monkeypatch.setattr(iteration, "build_step_workspace", counting)
        initial = (DEMO_ROOTS[0],) + DEMO_INITIAL[1:] if frozen_start else DEMO_INITIAL
        report = solve(demo_poly, DEMO_MULTS, initial, demo_config)
        assert report.converged
        assert calls == [rec.values for rec in report.trace[:-1]]
    def test_demo_fixture_three_iterations(self, demo_poly, demo_config):
        report = solve(demo_poly, DEMO_MULTS, DEMO_INITIAL, demo_config)
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations_used == 3
        # exact residuals let every component land on its root
        assert [bits(z) for z in report.final] == [bits(z) for z in DEMO_ROOTS]
        # trace bookkeeping: consecutive indices, no steps on record 0
        assert [rec.k for rec in report.trace] == [0, 1, 2, 3]
        assert report.trace[0].steps is None
        assert report.trace[1].steps is not None

    def test_gaussian_problem_with_triple_roots_converges(self):
        # Problem 765 of the benchmark's `small` pool at seed 1501 (total
        # step, acceptance criterion 6's config).  With residuals that were
        # noise below about 2^-106 of the condition sum, it ran to
        # MaxIterations with a root 3.6 away; exact residuals converge.
        roots = (complex(-3, 1), complex(-2, 0), complex(-2, 2),
                 complex(-1, 1), complex(0, -2))
        mults = (3, 2, 3, 3, 1)
        initial = (complex(-2.951215462168873, 1.0859305107528723),
                   complex(-1.9739467978327885, 0.04929870760315605),
                   complex(-1.9262573771399643, 2.0650540158595265),
                   complex(-0.9551966489901458, 0.9880092590188778),
                   complex(-0.00791596469462999, -2.014583191626429))
        cfg = SolveConfig(max_iterations=60, step_tolerance=1e-14,
                          residual_tolerance=1e-30)
        report = solve(poly_from_roots(RootSystem(roots, mults)), mults,
                       initial, cfg)
        assert report.status is SolveStatus.CONVERGED
        assert max(abs(got - root)
                   for got, root in zip(report.final, roots)) <= 1e-10

    def test_exact_start_freezes_immediately(self, demo_poly, demo_config):
        report = solve(demo_poly, DEMO_MULTS, DEMO_ROOTS, demo_config)
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations_used == 0
        assert report.final == DEMO_ROOTS
        assert all(report.trace[0].frozen)

    def test_coincident_initial_collision_at_iteration_zero(self, demo_poly):
        report = solve(demo_poly, DEMO_MULTS, (4.0, 4.0, 0.1))
        assert report.status is SolveStatus.COLLISION
        assert report.iterations_used == 0

    @pytest.mark.parametrize("mults,simple", [
        ((1, 1), False), ((1, 1), True), ((2, 1), False),
    ])
    def test_coincident_frozen_starts_are_a_collision(self, mults, simple):
        # Both starts sit on the root 1 and freeze before any sweep, whose
        # collision scan skips pairs of frozen components.
        poly = poly_from_roots(RootSystem((1, 2), mults))
        report = solve(poly, mults, (1, 1), use_simple_step=simple)
        assert report.status is SolveStatus.COLLISION
        assert report.iterations_used == 0
        assert report.final == (1, 1)

    def test_overflow_status(self):
        poly = MonicPolynomial((0, 0, 0, 0, 0, 1e300))
        report = solve(poly, (6,), (1e80,))
        assert report.status is SolveStatus.OVERFLOW

    def test_singular_denominator_status(self):
        poly = MonicPolynomial((-1,))
        report = solve(poly, (1,), (1e305,))
        assert report.status is SolveStatus.SINGULAR_DENOMINATOR

    def test_max_iterations_status(self, demo_poly):
        cfg = SolveConfig(max_iterations=1, step_tolerance=1e-15,
                          residual_tolerance=1e-26)
        report = solve(demo_poly, DEMO_MULTS, DEMO_INITIAL, cfg)
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert report.iterations_used == 1

    def test_converged_wins_on_last_allowed_iteration(self, demo_poly):
        cfg = SolveConfig(max_iterations=3, step_tolerance=1e-15,
                          residual_tolerance=1e-26)
        report = solve(demo_poly, DEMO_MULTS, DEMO_INITIAL, cfg)
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations_used == 3

    def test_single_multiple_root_problem(self):
        poly = MonicPolynomial((-10, 25))
        report = solve(poly, (2,), (4.0,))
        assert report.status is SolveStatus.CONVERGED
        assert report.final[0] == 5

    def test_simple_step_solver_matches_generalized(self):
        rs = RootSystem((0, 1, 2), (1, 1, 1))
        poly = poly_from_roots(rs)
        initial = (-0.2, 1.1, 2.3)
        gen = solve(poly, (1, 1, 1), initial)
        simple = solve(poly, (1, 1, 1), initial, use_simple_step=True)
        assert gen.status is SolveStatus.CONVERGED
        assert simple.status is SolveStatus.CONVERGED
        for a, b in zip(gen.final, simple.final):
            assert a == pytest.approx(b, abs=1e-12)

    def test_simple_step_requires_unit_multiplicities(self, demo_poly):
        with pytest.raises(ValueError):
            solve(demo_poly, DEMO_MULTS, DEMO_INITIAL, use_simple_step=True)

    def test_serial_mode_converges(self, demo_poly):
        cfg = SolveConfig(update_mode=UpdateMode.SERIAL, step_tolerance=1e-15,
                          residual_tolerance=1e-26, max_iterations=30)
        report = solve(demo_poly, DEMO_MULTS, DEMO_INITIAL, cfg)
        assert report.status is SolveStatus.CONVERGED
        for got, root in zip(report.final, DEMO_ROOTS):
            assert abs(got - root) <= 1e-9

    def test_validation_errors_raise(self, demo_poly):
        with pytest.raises(ValueError):
            solve(demo_poly, (2, 1, 2), DEMO_INITIAL)  # wrong degree sum
        with pytest.raises(ValueError):
            solve(demo_poly, DEMO_MULTS, (1.0, 2.0))  # wrong vector length
        for mults in ((2, True, 3), (2.0, 1, 3)):
            with pytest.raises(ValueError, match="multiplicities must be integers"):
                solve(demo_poly, mults, DEMO_INITIAL)

    @pytest.mark.parametrize("mode", list(UpdateMode))
    @pytest.mark.parametrize("kind", ["gek", "ek"])
    def test_evaluation_ledger(self, monkeypatch, mode, kind):
        # Three rings of 4 roots; their components freeze at different
        # sweeps, so later sweeps run with some components frozen.
        alphas = (2, 3, 1) if kind == "gek" else (1, 1, 1)
        poly, mults, initial = ring_problem(4, alphas, seed=104)
        m = len(mults)
        ledger = []

        def logged(name, fn):
            def wrapper(*args):
                ledger.append((name, args))
                return fn(*args)
            return wrapper

        monkeypatch.setattr(iteration, "eval_with_derivative",
                            logged("eval", iteration.eval_with_derivative))
        monkeypatch.setattr(polynomial, "_horner_pair",
                            logged("pass", polynomial._horner_pair))
        for step in ("gek_step", "ek_step"):
            monkeypatch.setattr(iteration, step,
                                logged("sweep", getattr(iteration, step)))
        cfg = SolveConfig(update_mode=mode, **RING_CONFIG)
        report = solve(poly, mults, initial, cfg, use_simple_step=kind == "ek")
        assert report.status is SolveStatus.CONVERGED
        # every call is still made, but only a new point costs a Horner
        # pass: a repeated one returns the pair kept for it
        points = [args[1] for name, args in ledger if name == "eval"]
        passes = sum(name == "pass" for name, _ in ledger)
        assert passes == len(set(points)) < len(points)

        # evaluations before the first sweep, then within each sweep
        counts = [0]
        for name, _ in ledger:
            if name == "sweep":
                counts.append(0)
            elif name == "eval":
                counts[-1] += 1
        assert len(counts) == report.iterations_used + 1
        assert counts[0] == m
        carried = 0
        for k in range(1, len(counts)):
            before, after = report.trace[k - 1], report.trace[k]
            active = m - sum(before.frozen)
            step = active if mode is UpdateMode.TOTAL_STEP else 2 * active - 1
            # the step's evaluations, then one residual per updated
            # component; a frozen component's residual is carried
            assert counts[k] == step + active
            for i in range(m):
                if before.frozen[i]:
                    assert after.residuals[i] == before.residuals[i]
                    carried += 1
        assert carried >= 1

    def test_frozen_components_never_move_in_reports(self, demo_poly):
        cfg = SolveConfig(step_tolerance=1e-15, residual_tolerance=1e-26,
                          max_iterations=20)
        report = solve(demo_poly, DEMO_MULTS, DEMO_INITIAL, cfg)
        for prev, cur in zip(report.trace, report.trace[1:]):
            for i in range(3):
                if prev.frozen[i]:
                    assert bits(cur.values[i]) == bits(prev.values[i])


class TestQuarticContraction:
    def test_max_error_slope_on_fixture(self, demo_poly, demo_config):
        report = solve(demo_poly, DEMO_MULTS, DEMO_INITIAL, demo_config)
        e = [
            max(abs(rec.values[i] - DEMO_ROOTS[i]) for i in range(3))
            for rec in report.trace
        ]
        # two usable pairs before machine precision: k = 0->1 and 1->2
        slope = (np.log(e[2]) - np.log(e[1])) / (np.log(e[1]) - np.log(e[0]))
        assert 3.5 <= slope <= 4.5


class TestRemarkEquivalence:
    def test_generalized_equals_simple_on_hundred_problems(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 100:
            rs = continuous_system(rng, m_max=8, alpha_max=1, box=2.5,
                                   min_separation=0.5)
            if rs.m < 2:
                continue
            poly = poly_from_roots(rs)
            approx = perturbed(rng, rs.roots, 0.1)
            ones = (1,) * rs.m
            g = gek_step(poly, approx, ones)
            e = ek_step(poly, approx)
            for a, b in zip(g, e):
                assert abs(a - b) <= 1e-10 * max(abs(b), 1e-300)
            checked += 1


class TestConcurrentSolves:
    def test_threads_get_the_sequential_reports(self):
        # `eval_with_derivative` keeps the pairs of the polynomial evaluated
        # last in module state.  Four threads (more than the two cores of a
        # small machine) solve two polynomials interleaved, and one shared
        # polynomial, with a short switch interval so that they switch
        # inside evaluations; every report must equal its sequential twin.
        problems = [
            (*ring_problem(3, (2, 1, 1), seed=301), UpdateMode.TOTAL_STEP),
            (*ring_problem(3, (1, 2, 1), seed=302), UpdateMode.SERIAL),
        ]

        def run(problem):
            poly, mults, initial, mode = problem
            return solve(poly, mults, initial,
                         SolveConfig(update_mode=mode, **RING_CONFIG))

        twins = [run(problem) for problem in problems]
        assert all(t.status is SolveStatus.CONVERGED for t in twins)
        schedules = ([0, 1] * 8, [1, 0] * 8, [0] * 16, [0] * 16)

        def worker(schedule):
            return [(k, run(problems[k])) for k in schedule]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(schedules)) as pool:
                futures = [pool.submit(worker, s) for s in schedules]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert sum(map(len, results)) == sum(map(len, schedules))
        for k, report in (pair for result in results for pair in result):
            assert report == twins[k]
            assert trace_digest(report) == trace_digest(twins[k])
