"""Seeded problem generators for the benchmark workloads.

Standard library only: the benchmark must not import numpy, so that import
costs and memory belong to the library under test.  Every generator takes a
``random.Random`` and returns problems whose true roots are known, so each
result can be checked against them.

Families
--------
small
    Gaussian-integer roots (the family of acceptance criterion 6): m = 1..5
    distinct roots, multiplicities <= 3, roots in the box [-3, 3]^2, each
    start within 0.1 of its root.  The demo sextic is added.
rings
    Three stacked concentric rings  prod_R (x^c - s_R R^c)^alpha_R  for
    R in {1/2, 1, 2}, one common c and a random sign s_R per ring, so
    m = 3c distinct roots; alpha <= 3 on the two inner rings, and the outer
    ring is simple (see ``ring_schedule``).  Coefficients are built exactly
    with ``fractions.Fraction`` and must be binary64 numbers, because rounded
    coefficients would split the multiple roots.  Each start is moved by
    2-5% of |root|.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

#: Acceptance criterion 6's configuration (the paper's regime).
SMALL_CONFIG = {"max_iterations": 60, "step_tolerance": 1e-14,
                "residual_tolerance": 1e-30}
#: The demo's configuration, used for the ring families.
RING_CONFIG = {"max_iterations": 40, "step_tolerance": 1e-15,
               "residual_tolerance": 1e-26}

SMALL_ACCURACY = 1e-10          # absolute
RING_ACCURACY = 1e-10           # relative to |root|

DEMO_ROOTS = (complex(-2.0), complex(1.0), complex(3.0))
DEMO_MULTIPLICITIES = (2, 1, 3)
DEMO_INITIAL = (complex(-3.0), complex(0.1), complex(4.0))
DEMO_CONFIG = {"max_iterations": 20, "step_tolerance": 1e-15,
               "residual_tolerance": 1e-26}
#: Published k = 1 iterate of the demo problem.
DEMO_K1_ROW = (-1.98938060918119354, 0.995064651338749428, 3.02604710332169412)

RING_RADII = (Fraction(1, 2), Fraction(1), Fraction(2))


@dataclass(frozen=True)
class Problem:
    """One solve: the known roots, the start and how to run it.

    ``coefficients`` holds a_1..a_n of the monic polynomial when they were
    built exactly here; None means the roots are exactly representable and
    the polynomial is expanded by the library's ``poly_from_roots``.
    """

    label: str
    roots: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    initial: tuple[complex, ...]
    config: dict
    mode: str = "total"            # "total" or "serial"
    simple_step: bool = False      # ek_step instead of gek_step
    accuracy: float = SMALL_ACCURACY
    relative: bool = False
    coefficients: Optional[tuple[complex, ...]] = None

    @property
    def m(self) -> int:
        return len(self.roots)

    @property
    def degree(self) -> int:
        return sum(self.multiplicities)

    def miss(self, final) -> float:
        """Largest error of ``final`` against the known roots, in the
        problem's own measure (absolute or relative).  Each component is
        matched to the nearest known root of its own multiplicity, so
        components that trade places between roots of equal multiplicity
        still count as found; inf unless that matching is one to one."""
        if len(final) != self.m:
            return math.inf
        worst, used = 0.0, set()
        for got, alpha in zip(final, self.multiplicities):
            err, j = min(((self._error(complex(got), root), j)
                          for j, (root, a) in enumerate(zip(self.roots, self.multiplicities))
                          if a == alpha), key=lambda pair: pair[0])
            if j in used or not err == err:       # a root found twice, or nan
                return math.inf
            used.add(j)
            worst = max(worst, err)
        return worst

    def _error(self, got: complex, root: complex) -> float:
        err = abs(got - root)
        return err / abs(root) if self.relative else err

    def accurate(self, final) -> bool:
        return self.miss(final) <= self.accuracy


def _in_disc(rng: random.Random, radius: float) -> complex:
    while True:
        re = rng.uniform(-radius, radius)
        im = rng.uniform(-radius, radius)
        if re * re + im * im < radius * radius:
            return complex(re, im)


def gaussian_system(rng: random.Random, m: int, alpha_max=3, box=3):
    """m distinct Gaussian-integer roots and their multiplicities."""
    points = set()
    while len(points) < m:
        points.add((rng.randint(-box, box), rng.randint(-box, box)))
    points = sorted(points)
    mults = tuple(rng.randint(1, alpha_max) for _ in range(m))
    return points, mults


def gaussian_coefficients(points, mults) -> tuple[complex, ...]:
    """a_1..a_n of prod (x - p)^alpha over Gaussian integers, exactly."""
    coeffs = [(1, 0)]                      # descending powers, (re, im) ints
    for (pr, pi), alpha in zip(points, mults):
        for _ in range(alpha):
            nxt = coeffs + [(0, 0)]
            for k, (cr, ci) in enumerate(coeffs):
                # nxt[k + 1] -= p * coeffs[k]
                nr, ni = nxt[k + 1]
                nxt[k + 1] = (nr - (pr * cr - pi * ci), ni - (pr * ci + pi * cr))
            coeffs = nxt
    out = []
    for re, im in coeffs[1:]:
        if abs(re) > 2 ** 53 or abs(im) > 2 ** 53:
            raise ValueError("Gaussian-integer coefficient is not a binary64 number")
        out.append(complex(re, im))
    return tuple(out)


def small_problems(rng: random.Random, count: int) -> list[Problem]:
    """The demo sextic first, then ``count`` criterion-6 problems.  m cycles
    through 1..5 and the mode alternates between total and serial, so every
    (m, mode) pair is equally frequent whatever the seed; the seed draws the
    roots, multiplicities and starts."""
    problems = [Problem("demo", DEMO_ROOTS, DEMO_MULTIPLICITIES, DEMO_INITIAL,
                        DEMO_CONFIG)]
    for k in range(count):
        points, mults = gaussian_system(rng, 1 + k % 5)
        roots = tuple(complex(a, b) for a, b in points)
        initial = tuple(r + _in_disc(rng, 0.1) for r in roots)
        problems.append(Problem(
            f"gauss-m{len(roots)}", roots, mults, initial, SMALL_CONFIG,
            mode="total" if (k // 5) % 2 == 0 else "serial"))
    return problems


def _polymul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def ring_fractions(c: int, signs, alphas) -> list[Fraction]:
    """Exact descending coefficients of prod_R (x^c - s_R R^c)^alpha_R."""
    coeffs = [Fraction(1)]
    for radius, sign, alpha in zip(RING_RADII, signs, alphas):
        factor = [Fraction(1)] + [Fraction(0)] * (c - 1) + [-sign * radius ** c]
        for _ in range(alpha):
            coeffs = _polymul(coeffs, factor)
    return coeffs


def is_binary64(coeffs) -> bool:
    return all(Fraction(float(x)) == x for x in coeffs)


def ring_roots(c: int, signs, alphas):
    roots, mults = [], []
    for radius, sign, alpha in zip(RING_RADII, signs, alphas):
        shift = 0.0 if sign > 0 else math.pi
        for j in range(c):
            roots.append(cmath.rect(float(radius), (2.0 * math.pi * j + shift) / c))
            mults.append(alpha)
    return tuple(roots), tuple(mults)


def ring_problem(rng: random.Random, c: int, alphas, **kwargs) -> Problem:
    """One three-ring problem with m = 3c and the given multiplicities
    (inner, middle, outer ring); ``rng`` draws the signs and the starts."""
    signs = tuple(rng.choice((1, -1)) for _ in RING_RADII)
    exact = ring_fractions(c, signs, alphas)
    if not is_binary64(exact):
        raise ValueError(f"ring c={c} alphas={alphas} is not exact in binary64")
    roots, mults = ring_roots(c, signs, alphas)
    initial = tuple(
        z + cmath.rect(rng.uniform(0.02, 0.05) * abs(z), rng.uniform(0.0, 2.0 * math.pi))
        for z in roots)
    coefficients = tuple(complex(float(x)) for x in exact[1:])
    label = f"ring-m{3 * c}-a{''.join(map(str, alphas))}"
    return Problem(label, roots, mults, initial, RING_CONFIG,
                   accuracy=RING_ACCURACY, relative=True,
                   coefficients=coefficients, **kwargs)


def ring_schedule(name: str, sizes, count: int, simple_every: int = 0):
    """The fixed (c, alphas) sequence of a ring workload.

    c cycles through ``sizes``, so every stretch of the schedule has the same
    mix of sizes.  The outer (R = 2) ring is simple: with multiplicity 2 or 3
    there, about a third of the problems land and are then kicked back out
    by the solver's stopping rule (see bench/README.md).  The two inner
    multiplicities are drawn from a generator seeded by ``name`` alone and
    redrawn until the exact coefficients are binary64 numbers (that depends
    on the multiplicities only, not on the signs).  The schedule is the same
    for every ``--seed``, which keeps the work per run fixed; the seed
    chooses the signs and the starts.  With ``simple_every`` > 0, every
    such slot is the all-simple ring.
    """
    draw = random.Random(name)
    slots = []
    for k in range(count):
        c = sizes[k % len(sizes)]
        if simple_every and k % simple_every == 0:
            slots.append((c, (1, 1, 1)))
            continue
        while True:
            alphas = (draw.randint(1, 3), draw.randint(1, 3), 1)
            if is_binary64(ring_fractions(c, (1, 1, 1), alphas)):
                break
        slots.append((c, alphas))
    return slots


#: c for the wide workloads, in the order the schedule cycles through them.
WIDE_TOTAL_C = (7, 10, 13, 8, 11, 9, 12)          # m = 21 .. 39
WIDE_QUADRATIC_C = (4, 6, 5, 4, 5)                # m = 12, 18, 15


def wide_total_problems(rng: random.Random, count: int) -> list[Problem]:
    """Ring problems solved with total-step gek."""
    return [ring_problem(rng, c, alphas)
            for c, alphas in ring_schedule("wide_total", WIDE_TOTAL_C, count)]


def wide_quadratic_problems(rng: random.Random, count: int) -> list[Problem]:
    """Ring problems whose sweeps cost O(m^2) evaluations: every problem
    runs serial gek, and every all-simple ring (every other slot) also runs
    total and serial ek."""
    problems = []
    for c, alphas in ring_schedule("wide_quadratic", WIDE_QUADRATIC_C, count, 2):
        base = ring_problem(rng, c, alphas, mode="serial")
        problems.append(base)
        if alphas == (1, 1, 1):
            for mode in ("total", "serial"):
                problems.append(Problem(
                    f"{base.label}-ek-{mode}", base.roots, base.multiplicities,
                    base.initial, base.config, mode=mode, simple_step=True,
                    accuracy=base.accuracy, relative=True,
                    coefficients=base.coefficients))
    return problems
