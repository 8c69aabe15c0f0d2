import math
from fractions import Fraction

import numpy as np
import pytest

from multiroots import (
    DegenerateSystemError,
    InsufficientDataError,
    IterationTrace,
    RootSystem,
    SolveConfig,
    SolveStatus,
    TraceRecord,
    error_bound,
    errors_against,
    estimate_order,
    solve,
    theorem_check,
)
from multiroots.theory import MIN_USABLE_PAIRS, NOISE_FLOOR_FACTOR
from conftest import DEMO_INITIAL, DEMO_MULTS, DEMO_ROOTS


def exact_guarantee_lhs(c: Fraction, d: Fraction, n: int):
    """Oracle: the guarantee inequality computed in exact rationals."""
    gap = d - 2 * c
    ratio = c / gap
    big_m = (1 + ratio) ** n - 1
    big_n = (1 + n * ratio * ratio) ** (n - 1) - 1
    lhs = 2 * c * c * n / gap ** 2 * (ratio + (1 + ratio) * (big_n + big_m * big_n + big_m))
    return big_m, big_n, lhs


def synthetic_trace(errors, root=0.0):
    """Single-component trace whose k-th error is errors[k] exactly."""
    records = []
    for k, e in enumerate(errors):
        value = complex(root + e)
        records.append(TraceRecord(
            k=k,
            values=(value,),
            residuals=(abs(e),),
            steps=None if k == 0 else (abs(errors[k] - errors[k - 1]),),
            frozen=(False,),
        ))
    return IterationTrace(tuple(records))


class TestTheoremCheck:
    def test_fixture_is_guaranteed_and_matches_exact_oracle(self, demo_system):
        result = theorem_check(demo_system, 0.01, 0.5)
        assert result.guaranteed
        assert result.reason is None
        assert result.constants.d == 2.0
        assert result.constants.n == 6
        m_exact, n_exact, lhs_exact = exact_guarantee_lhs(
            Fraction(1, 100), Fraction(2), 6
        )
        assert result.constants.M == pytest.approx(float(m_exact), rel=1e-13)
        assert result.constants.N == pytest.approx(float(n_exact), rel=1e-13)
        assert result.lhs == pytest.approx(float(lhs_exact), rel=1e-13)
        assert result.lhs < 1  # far below the smallest multiplicity
        for margin, alpha in zip(result.per_root_margin, DEMO_MULTS):
            assert margin == pytest.approx(alpha - result.lhs)

    def test_gap_violation_fails_with_reason(self, demo_system):
        result = theorem_check(demo_system, 1.5, 0.5)  # d - 2c = -1
        assert not result.guaranteed
        assert "d - 2c" in result.reason
        assert math.isinf(result.lhs)

    def test_overflowing_growth_factors_are_infinite(self):
        # n = 600, c/(d-2c) = 4.5: both powers exceed the binary64 range
        result = theorem_check(RootSystem((0, 1), (300, 300)), 0.45, 0.5)
        assert not result.guaranteed
        assert "overflows" in result.reason
        assert math.isinf(result.constants.M) and math.isinf(result.constants.N)
        assert result.lhs == math.inf
        assert result.per_root_margin == (-math.inf, -math.inf)

    def test_q_one_fails(self, demo_system):
        result = theorem_check(demo_system, 0.01, 1.0)
        assert not result.guaranteed
        assert "q" in result.reason

    def test_single_root_degenerate(self):
        with pytest.raises(DegenerateSystemError):
            theorem_check(RootSystem((1,), (4,)), 0.01, 0.5)

    def test_nonpositive_c_rejected(self, demo_system):
        with pytest.raises(ValueError):
            theorem_check(demo_system, 0.0, 0.5)

    def test_lhs_monotone_in_c(self, demo_system):
        # strictly increasing on (0, d/2); sampled on a 100-point grid
        d = 2.0
        cs = [d / 2 * (i + 1) / 102 for i in range(100)]
        values = [theorem_check(demo_system, c, 0.5).lhs for c in cs]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestErrorBound:
    def test_direct_values(self):
        assert error_bound(1.0, 0.5, 0) == 0.5
        assert error_bound(1.0, 0.5, 1) == 0.0625
        assert error_bound(2.0, 0.1, 2) == pytest.approx(2e-16, rel=1e-12)

    def test_underflow_returns_zero(self):
        assert error_bound(1.0, 0.5, 1000) == 0.0

    def test_functional_equation(self):
        # bound(k+1) = bound(k)^4 / c^3 in exact arithmetic
        for c, q in ((1.0, 0.5), (2.0, 0.1), (0.3, 0.9)):
            for k in range(4):
                lhs = error_bound(c, q, k + 1)
                rhs = error_bound(c, q, k) ** 4 / c ** 3
                if rhs == 0.0:
                    assert lhs == 0.0
                else:
                    assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            error_bound(-1.0, 0.5, 0)
        with pytest.raises(ValueError):
            error_bound(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            error_bound(1.0, 0.5, -1)


class TestEstimateOrder:
    def test_quartic_synthetic_sequence(self):
        # e_k = 0.9 ** (4 ** k) has five terms above the noise floor
        errors = [0.9 ** (4 ** k) for k in range(6)]
        trace = synthetic_trace(errors)
        orders = estimate_order(trace, RootSystem((0,), (1,)))
        assert orders[0] == pytest.approx(4.0, abs=1e-9)

    def test_quadratic_synthetic_sequence(self):
        errors = [0.5 ** (2 ** k) for k in range(7)]
        trace = synthetic_trace(errors)
        orders = estimate_order(trace, RootSystem((0,), (1,)))
        assert orders[0] == pytest.approx(2.0, abs=1e-9)

    def test_saturated_sequence_reports_none(self):
        # quartic from 0.1 dives under the noise floor after two steps,
        # leaving a single usable pair: not enough for a fit
        errors = [0.1 ** (4 ** k) for k in range(4)]
        trace = synthetic_trace(errors)
        assert estimate_order(trace, RootSystem((0,), (1,)))[0] is None

    def test_short_trace_raises(self):
        trace = synthetic_trace([0.1, 0.01])
        with pytest.raises(InsufficientDataError):
            estimate_order(trace, RootSystem((0,), (1,)))

    def test_mismatched_roots_rejected(self):
        trace = synthetic_trace([0.1, 0.01, 0.001])
        with pytest.raises(ValueError):
            estimate_order(trace, RootSystem((0, 1), (1, 1)))

    def test_noise_floor_scales_with_root_magnitude(self):
        # identical error sequence, but the floor grows with |root|
        errors = [1e-5, 1e-7, 1e-9, 1e-11, 1e-13]
        near_origin = estimate_order(
            synthetic_trace(errors, root=0.0), RootSystem((0,), (1,))
        )
        far_out = estimate_order(
            synthetic_trace(errors, root=1e4), RootSystem((1e4,), (1,))
        )
        assert near_origin[0] is not None  # floor ~2.2e-14 near the origin
        assert far_out[0] is None  # floor ~2.2e-10 at |root| = 1e4

    def test_demo_fixture_saturates_per_root(self, demo_poly, demo_system,
                                              demo_config):
        # fourth-order runs hit machine precision after two usable pairs;
        # a defensible fit needs MIN_USABLE_PAIRS, so every index is n/a
        report = solve(demo_poly, DEMO_MULTS, DEMO_INITIAL, demo_config)
        assert report.status is SolveStatus.CONVERGED
        orders = estimate_order(report.trace, demo_system)
        for order in orders:
            assert order is None or 3.5 <= order <= 4.5
        assert MIN_USABLE_PAIRS == 3

    def test_errors_against_helper(self, demo_poly, demo_config):
        report = solve(demo_poly, DEMO_MULTS, DEMO_INITIAL, demo_config)
        errs = errors_against(report.trace, DEMO_ROOTS)
        assert len(errs) == 3
        assert errs[0][0] == pytest.approx(1.0)
        assert errs[1][0] == pytest.approx(0.9)
        assert all(e[-1] <= 1e-14 for e in errs)
