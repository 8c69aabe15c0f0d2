"""Bit-for-bit regression of whole solve() traces.

Each case hashes (SHA-256 over ``struct.pack`` bits) everything a solve
reports: status, iteration count, final vector and, for every record,
its values, residuals, steps and frozen flags.  The digests were taken
before the pair-term table of the generalized step and the per-sweep
products of the simple-root step were introduced, so they pin that
those changes, and any later one made for speed, keep the arithmetic
unchanged.  A change that alters the rounding on purpose must update
the digest here and say why.

Re-pinned once since: the demo digest, the six generalized-step ring
digests and the two generalized-step signed-zero digests moved when
`eval_with_derivative` became exact (each part of A and A' rounded once
from the exact value, where the compensated kernel kept about 106 bits).
Residual bits near the multiple roots changed, and the demo and the
serial signed-zero run now land exactly on their roots; every status and
sweep count stayed the same.  An exactly zero part of A or A' now comes
back as +0.0; the signed zeros of those runs' iterates did not change.
The simple-step digests did not move.
"""

import cmath
import hashlib
import math
import random
import struct
from fractions import Fraction

import pytest

from multiroots import (
    MonicPolynomial,
    RootSystem,
    SolveConfig,
    UpdateMode,
    poly_from_roots,
    solve,
)
from conftest import DEMO_INITIAL, DEMO_MULTS, DEMO_ROOTS

RADII = (Fraction(1, 2), Fraction(1), Fraction(2))
SIGNS = (1, -1, 1)
RING_CONFIG = dict(max_iterations=40, step_tolerance=1e-15, residual_tolerance=1e-26)


def ring_problem(c, alphas, seed):
    """prod_R (x^c - s_R R^c)^alpha_R over three rings, m = 3c roots.

    The coefficients are expanded exactly and are binary64 numbers, so the
    polynomial carries no expansion rounding.  Starts lie 2-5% from each
    root, in directions drawn from ``random.Random(seed)``.
    """
    coeffs = [Fraction(1)]
    for radius, sign, alpha in zip(RADII, SIGNS, alphas):
        factor = [Fraction(1)] + [Fraction(0)] * (c - 1) + [-sign * radius ** c]
        for _ in range(alpha):
            out = [Fraction(0)] * (len(coeffs) + len(factor) - 1)
            for i, x in enumerate(coeffs):
                for j, y in enumerate(factor):
                    out[i + j] += x * y
            coeffs = out
    assert all(Fraction(float(x)) == x for x in coeffs)
    roots, mults = [], []
    for radius, sign, alpha in zip(RADII, SIGNS, alphas):
        shift = 0.0 if sign > 0 else math.pi
        for k in range(c):
            roots.append(cmath.rect(float(radius), (2.0 * math.pi * k + shift) / c))
            mults.append(alpha)
    rng = random.Random(seed)
    initial = tuple(
        z + cmath.rect(rng.uniform(0.02, 0.05) * abs(z), rng.uniform(0.0, 2.0 * math.pi))
        for z in roots)
    poly = MonicPolynomial(tuple(complex(float(x)) for x in coeffs[1:]))
    return poly, tuple(mults), initial


def trace_digest(report):
    h = hashlib.sha256()
    h.update(report.status.value.encode())
    h.update(struct.pack("<q", report.iterations_used))
    for z in report.final:
        h.update(struct.pack("<dd", z.real, z.imag))
    for rec in report.trace:
        h.update(struct.pack("<q", rec.k))
        for z in rec.values:
            h.update(struct.pack("<dd", z.real, z.imag))
        for r in rec.residuals:
            h.update(struct.pack("<d", r))
        if rec.steps is None:
            h.update(b"-")
        else:
            for s in rec.steps:
                h.update(struct.pack("<d", s))
        h.update(bytes(rec.frozen))
    return h.hexdigest()


#: Digest of the demo run, as `multiroots demo` makes it.
DEMO_DIGEST = "12fc862a1d67e6cc46925a60b4c058d244ad85c7aa3caeddb32bae65d0a07023"

#: (c, kind, mode) -> digest.  m = 3c; "gek" is the generalized step with
#: multiplicities (2, 3, 1) from the inner ring out, "ek" the simple-root
#: step on all-simple rings.  Every run ends Converged after 2-3 sweeps.
RING_DIGESTS = {
    (1, 'gek', 'total'): (
        "bd62028b99d66e7ae0760ccbdd141a3d8bb9fe7aec9b747dbb951902986be5bb"),
    (1, 'gek', 'serial'): (
        "afc9ff94bc44b3d9f7f3bfb0e69769f94a40d6a195c8000deb2477f57b97e874"),
    (1, 'ek', 'total'): (
        "8f1def4b0abd4c6a90e29b3c66d3b27add5b43a2ab2e61571ecef609237ed79c"),
    (1, 'ek', 'serial'): (
        "4731b03b3d803534b52aef19940dc62847b005ee1fcdeacea5f987d21b7967d7"),
    (4, 'gek', 'total'): (
        "a44edbd5493108f23952e57934db0a30fb6255a1a8bd04397bfa502739eae64b"),
    (4, 'gek', 'serial'): (
        "6d0b91919f0440c3d32621b1a4b140314011a2971b052b07ce1ec550081147b8"),
    (4, 'ek', 'total'): (
        "7c7ec8365f489bff61708334675949a8acb0b1a8d8cf76ff5461691e9bd23c7b"),
    (4, 'ek', 'serial'): (
        "7588e3b9ae34384342d36cc57950e5e3fc86649abf0359ebfa687e93320e9df8"),
    (6, 'gek', 'total'): (
        "2425912a78994d7ce6d90136317eabf5e04116ba43b70fc26a59787b3ccf21c9"),
    (6, 'gek', 'serial'): (
        "1e9225fb9698307895e74b656087f0b3eb5c5565c1c2f1533c3340fc1520a743"),
    (6, 'ek', 'total'): (
        "e162a0f884d18112d781737adee888d7f471504c68007bc492385f4634c423f0"),
    (6, 'ek', 'serial'): (
        "5facc233ea47cc60fdc113dc7335fa2b56d0127d8c082dd4410b8e875517d1b9"),
}

#: kind -> (roots, multiplicities) of the real-root problems below; the
#: generalized problem has simple roots next to multiple ones.
SIGNED_ZERO_PROBLEMS = {
    "gek": ((-2.0, -0.5, 1.0, 2.5), (2, 1, 1, 3)),
    "ek": ((-2.0, -0.5, 1.0, 2.5, 4.0), (1, 1, 1, 1, 1)),
}
SIGNED_ZERO_OFFSETS = (0.09375, -0.078125, 0.0625, -0.046875, 0.03125)

#: (kind, mode) -> digest of a real-root run whose starts have imaginary
#: parts -0.0 and 0.0 in turn.  Only on such inputs does a simple root's
#: product factor d differ in a bit from (1 + 0j) * d = integer_power(d, 1),
#: so these runs pin that the results do not depend on which of the two
#: the deflating product multiplies by.  Each run ends Converged after 2
#: sweeps.
SIGNED_ZERO_DIGESTS = {
    ('gek', 'total'): (
        "ae30fab94a5f434927f835fd99885aca7283f6393f3804bd47c7ce5c081d5740"),
    ('gek', 'serial'): (
        "37a99487d1352fe9ba4c7eb4e47d3a881098fcdb8a5650ca9bdf548d955d6f8c"),
    ('ek', 'total'): (
        "e93096f6f3dd2f40745a86cc2b5a8865280b40c228cc0b716905780f799108a4"),
    ('ek', 'serial'): (
        "1a8b819bcda9696ca4966a1732490e67d5eb5a46230ef5d7c8ca2ea93ab0c8bb"),
}


def test_demo_trace():
    poly = poly_from_roots(RootSystem(DEMO_ROOTS, DEMO_MULTS))
    cfg = SolveConfig(max_iterations=20, step_tolerance=1e-15, residual_tolerance=1e-26)
    report = solve(poly, DEMO_MULTS, DEMO_INITIAL, cfg)
    assert trace_digest(report) == DEMO_DIGEST


@pytest.mark.parametrize("c", [1, 4, 6])
@pytest.mark.parametrize("kind", ["gek", "ek"])
@pytest.mark.parametrize("mode", ["total", "serial"])
def test_ring_trace(c, kind, mode):
    alphas = (2, 3, 1) if kind == "gek" else (1, 1, 1)
    poly, mults, initial = ring_problem(c, alphas, seed=100 + c)
    cfg = SolveConfig(update_mode=UpdateMode(mode), **RING_CONFIG)
    report = solve(poly, mults, initial, cfg, use_simple_step=kind == "ek")
    assert trace_digest(report) == RING_DIGESTS[(c, kind, mode)]


@pytest.mark.parametrize("kind", ["gek", "ek"])
@pytest.mark.parametrize("mode", ["total", "serial"])
def test_signed_zero_trace(kind, mode):
    roots, mults = SIGNED_ZERO_PROBLEMS[kind]
    poly = poly_from_roots(RootSystem(roots, mults))
    initial = tuple(complex(r + offset, (-0.0, 0.0)[k % 2])
                    for k, (r, offset) in enumerate(zip(roots, SIGNED_ZERO_OFFSETS)))
    cfg = SolveConfig(update_mode=UpdateMode(mode), **RING_CONFIG)
    report = solve(poly, mults, initial, cfg, use_simple_step=kind == "ek")
    assert trace_digest(report) == SIGNED_ZERO_DIGESTS[(kind, mode)]
