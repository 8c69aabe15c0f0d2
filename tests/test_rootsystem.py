import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from multiroots import (
    DegenerateSystemError,
    RootSystem,
    eval_with_derivative,
    poly_from_roots,
    separation,
)
from multiroots.rootsystem import _collision_limit
from conftest import continuous_system


def exact_expansion(roots, mults):
    """Oracle: expand prod (x - r)^alpha in exact rational arithmetic.

    Returns the trailing coefficients as (real, imaginary) Fraction pairs.
    """
    re, im = [Fraction(1)], [Fraction(0)]
    for root, mult in zip(roots, mults):
        xr, xi = Fraction(complex(root).real), Fraction(complex(root).imag)
        for _ in range(mult):
            nr, ni = re + [Fraction(0)], im + [Fraction(0)]
            for k in range(1, len(nr)):
                nr[k] -= xr * re[k - 1] - xi * im[k - 1]
                ni[k] -= xr * im[k - 1] + xi * re[k - 1]
            re, im = nr, ni
    return list(zip(re[1:], im[1:]))


def bits(coefficients):
    return b"".join(struct.pack("<dd", c.real, c.imag) for c in coefficients)


def correctly_rounded(roots, mults):
    """The exact expansion with each part rounded once to binary64."""
    return bits(complex(float(re), float(im))
                for re, im in exact_expansion(roots, mults))


def root_system_outcome(roots):
    """The message of the ValueError a `RootSystem` of simple ``roots``
    raises, or None where it accepts them."""
    try:
        RootSystem(roots, (1,) * len(roots))
    except ValueError as exc:
        return str(exc)
    return None


def ref_root_system_outcome(roots):
    """`root_system_outcome` by the loop `RootSystem` carried before it took
    the screened scan: every pair, in order of the later index."""
    limit = _collision_limit(roots)
    for i in range(len(roots)):
        for j in range(i):
            if abs(roots[i] - roots[j]) <= limit:
                return (f"roots {j} and {i} are closer than {limit:.3e}; "
                        f"merge them into one root of higher multiplicity")
    return None


class TestRootSystemValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            RootSystem((0, 1), (1,))

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            RootSystem((0, 1), (1, 0))

    @pytest.mark.parametrize("mult", [2.5, 2.0, True, "2", np.float64(2.0)],
                             ids=["2.5", "2.0", "True", "str", "float64"])
    def test_non_integer_multiplicity_rejected(self, mult):
        # int() would truncate 2.5 to 2 and turn True into 1
        with pytest.raises(ValueError, match="multiplicities must be integers"):
            RootSystem((1.0,), (mult,))

    def test_integer_like_multiplicities_accepted(self):
        rs = RootSystem((1.0, 2.0), (np.int64(2), 3))
        assert rs.multiplicities == (2, 3)
        assert all(type(a) is int for a in rs.multiplicities)

    def test_coincident_roots_rejected(self):
        with pytest.raises(ValueError):
            RootSystem((2.0, 2.0 + 1e-14), (1, 1))

    def test_nearly_coincident_scaled_roots_rejected(self):
        # threshold is relative to the largest root magnitude
        with pytest.raises(ValueError):
            RootSystem((1e6, 1e6 + 1e-8), (1, 1))

    @pytest.mark.parametrize("k", [-60, -41, -1, 0, 1, 40, 500])
    @pytest.mark.parametrize("roots,first_pair", [
        # conjugates with equal real parts, 2e-13 apart
        ((0.5 + 1e-13j, 0.25, 0.5 - 1e-13j), (0, 2)),
        # conjugates far apart, then a pair that collides
        ((0.5 + 0.5j, 0.5 - 0.5j, -0.3, -0.3 + 9e-13j), (2, 3)),
        # A and C collide; B lies between them in real part, 50 limits up
        ((0.3, 0.3 + complex(0.4e-12, 50e-12), 0.3 + complex(0.8e-12, 0.5e-12)), (0, 2)),
        ((0.3 + complex(0.8e-12, 0.5e-12), 0.3 + complex(0.4e-12, 50e-12), 0.3), (0, 2)),
        # pairs one ulp of the limit (1e-12 while |x| <= 1) either side of it
        ((1.0, 0j, complex(1e-12 * (1 + 2 ** -52))), None),
        ((1.0, 0j, complex(1e-12 * (1 - 2 ** -52))), (1, 2)),
        ((-1.0, 0j, complex(0, -1e-12 * (1 - 2 ** -52))), (1, 2)),
        ((-1.0, 0j, complex(0, -1e-12 * (1 + 2 ** -52))), None),
        # every pair collides: the first in order of the later index
        ((0.0, 1e-13, 2e-13, 3e-13), (0, 1)),
        # a far pair ahead in real part, the collision behind it
        ((5e-13, 0.9, 0.9 + 5e-13, 0.0), (1, 2)),
    ])
    def test_rejects_as_its_full_scan_did(self, roots, first_pair, k):
        # Unscaled, each case names ``first_pair``; scaled by 2^k the limit
        # scales too (|x| > 1) or stays 1e-12, and the full scan decides.
        if k == 0:
            got = root_system_outcome(roots)
            if first_pair is None:
                assert got is None
            else:
                assert got.startswith("roots %d and %d are closer than 1.000e-12" % first_pair)
        scaled = tuple(math.ldexp(1.0, k) * complex(r) for r in roots)
        assert root_system_outcome(scaled) == ref_root_system_outcome(scaled)

    def test_degree_sums_multiplicities(self):
        rs = RootSystem((-2, 1, 3), (2, 1, 3))
        assert rs.m == 3
        assert rs.degree == 6


class TestPolyFromRoots:
    def test_sextic_fixture_coefficients(self, demo_system):
        # oracle: exact rational expansion of (x+2)^2 (x-1) (x-3)^3
        expected = exact_expansion([-2, 1, 3], [2, 1, 3])
        assert expected == [(Fraction(c), 0) for c in (-6, 0, 50, -45, -108, 108)]
        poly = poly_from_roots(demo_system)
        assert poly.low_coefficients == (-6, 0, 50, -45, -108, 108)

    def test_sextic_vanishes_at_each_root(self, demo_poly):
        for root in (-2.0, 1.0, 3.0):
            value, _ = eval_with_derivative(demo_poly, root)
            assert value == 0

    def test_single_root_at_origin(self):
        poly = poly_from_roots(RootSystem((0,), (1,)))
        assert poly.low_coefficients == (0j,)

    def test_binomial_square(self):
        poly = poly_from_roots(RootSystem((5,), (2,)))
        assert poly.low_coefficients == (-10, 25)

    # Systems whose double-word expansion was not correctly rounded.
    ROUNDING_CASES = [
        # a_5's real part is exactly 0; the double-word result was -1.23e-43
        (((-0.004 + 0.002j), -0.005j, (-0.005 + 0.005j)), (1, 1, 4)),
        # degree 41 at |x| ~ 2^-30: a_36 is subnormal and a_37 .. a_41
        # underflow, some of them to -0.0
        (tuple(complex(a, b) * 2.0 ** -32
               for a, b in ((-3, 8), (5, 1), (0, -8), (-2, -3), (6, -3))),
         (4, 11, 3, 11, 12)),
    ]

    def test_random_rational_roots_match_exact_expansion(self):
        rng = np.random.default_rng(8)
        systems = list(self.ROUNDING_CASES)
        for _ in range(40):
            m = int(rng.integers(1, 5))
            # quarter-integer roots stay exactly representable
            roots = []
            while len(roots) < m:
                r = int(rng.integers(-8, 9)) / 4.0
                if all(abs(r - s) > 0.2 for s in roots):
                    roots.append(r)
            mults = [int(rng.integers(1, 4)) for _ in range(m)]
            systems.append((tuple(roots), tuple(mults)))
        for roots, mults in systems:
            poly = poly_from_roots(RootSystem(roots, mults))
            assert bits(poly.low_coefficients) == correctly_rounded(roots, mults), \
                (roots, mults)

    def test_overflowing_coefficient_named(self):
        # (x - a)^2 (x + a) = x^3 - a x^2 - a^2 x + a^3 with a = 1e200
        with pytest.raises(ValueError, match="expanded coefficient a_2 overflowed"):
            poly_from_roots(RootSystem((1e200, -1e200), (2, 1)))

    def test_round_trip_residual_small(self):
        # |A(x_i)| stays tiny at each constructed root for moderate systems
        rng = np.random.default_rng(42)
        for _ in range(150):
            rs = continuous_system(rng, box=1.75, min_separation=1.0)
            poly = poly_from_roots(rs)
            for root in rs.roots:
                value, _ = eval_with_derivative(poly, root)
                assert abs(value) <= 1e-8

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            rs = continuous_system(rng, box=2.0, min_separation=0.8)
            if rs.m < 2:
                continue
            poly = poly_from_roots(rs)
            perm = rng.permutation(rs.m)
            shuffled = RootSystem(
                tuple(rs.roots[p] for p in perm),
                tuple(rs.multiplicities[p] for p in perm),
            )
            poly2 = poly_from_roots(shuffled)
            assert bits(poly.low_coefficients) == bits(poly2.low_coefficients)


class TestSeparation:
    def test_fixture_separation(self, demo_system):
        assert separation(demo_system) == 2.0

    def test_two_roots(self):
        assert separation(RootSystem((0, 1), (1, 1))) == 1.0

    def test_complex_triangle(self):
        # pairwise distances 3, 4, 5; the minimum is 3
        rs = RootSystem((0, 3j, 4), (1, 1, 1))
        assert separation(rs) == 3.0

    def test_single_root_degenerate(self):
        with pytest.raises(DegenerateSystemError):
            separation(RootSystem((5,), (3,)))

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(78)
        for _ in range(25):
            rs = continuous_system(rng, box=2.0, min_separation=0.7)
            if rs.m < 2:
                continue
            perm = rng.permutation(rs.m)
            shuffled = RootSystem(
                tuple(rs.roots[p] for p in perm),
                tuple(rs.multiplicities[p] for p in perm),
            )
            assert separation(rs) == separation(shuffled)

    def test_translation_invariance(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            rs = continuous_system(rng, box=1.2, min_separation=0.7)
            if rs.m < 2:
                continue
            shift = complex(*rng.uniform(-0.8, 0.8, 2))
            shifted = RootSystem(
                tuple(r + shift for r in rs.roots), rs.multiplicities
            )
            assert abs(separation(rs) - separation(shifted)) <= 1e-15
