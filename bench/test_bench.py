"""Sanity checks of the benchmark's own counters and generators.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import itertools
import random

import pytest

import workloads as wl
from tracer import Tracer
from worker import POOL_SIZE, Inputs, make_cli_ops

from multiroots import iteration, polynomial, rootsystem


def traced_solve(poly, problem):
    config = iteration.SolveConfig(update_mode=iteration.UpdateMode(problem.mode),
                                   **problem.config)
    tracer = Tracer().install()
    tracer.op = 0
    try:
        report = iteration.solve(poly, problem.multiplicities, problem.initial, config,
                                 use_simple_step=problem.simple_step)
    finally:
        tracer.uninstall()
    return report, tracer.summary()


def test_traced_demo_counts():
    demo = wl.small_problems(random.Random(0), 0)[0]
    poly = rootsystem.poly_from_roots(rootsystem.RootSystem(demo.roots, demo.multiplicities))
    report, s = traced_solve(poly, demo)
    assert report.status is iteration.SolveStatus.CONVERGED
    assert s["polynomial.eval.calls"] == 21
    assert s["eval_distinct"] == 12
    assert s["sweeps"] == 3
    assert s["status.Converged"] == 1


def test_tracer_restores_the_library():
    before = (iteration.eval_with_derivative, iteration.solve, iteration.integer_power)
    Tracer().install().uninstall()
    assert (iteration.eval_with_derivative, iteration.solve, iteration.integer_power) == before


def test_serial_sweeps_spend_at_least_m_evaluations():
    problems = wl.wide_quadratic_problems(random.Random(1), 4)
    checked = 0
    for p in problems:
        if p.mode != "serial":
            continue
        report, s = traced_solve(polynomial.MonicPolynomial(p.coefficients), p)
        assert p.accurate(report.final)
        assert s["sweeps"] >= 1
        assert s["step_evals"] / s["sweeps"] >= p.m
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("name", ["wide_total", "wide_quadratic"])
def test_ring_coefficients_are_exact_binary64(name):
    sizes = wl.WIDE_TOTAL_C if name == "wide_total" else wl.WIDE_QUADRATIC_C
    schedule = wl.ring_schedule(name, sizes, POOL_SIZE[name], 2 if name == "wide_quadratic" else 0)
    for c, alphas in set(schedule):
        assert max(alphas) <= 3
        for signs in itertools.product((1, -1), repeat=3):
            exact = wl.ring_fractions(c, signs, alphas)
            assert wl.is_binary64(exact)
            assert len(exact) - 1 == c * sum(alphas)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ring_problems_carry_their_exact_polynomial(seed):
    for p in wl.wide_total_problems(random.Random(seed), 7):
        assert 20 <= p.m <= 40
        c = p.m // 3
        signs = tuple(1 if abs(p.roots[k * c] - abs(p.roots[k * c])) < 1e-12 else -1
                      for k in range(3))
        exact = wl.ring_fractions(c, signs, p.multiplicities[::c])
        assert p.coefficients == tuple(complex(float(x)) for x in exact[1:])


def test_gaussian_coefficients_match_the_library_expansion():
    for p in wl.small_problems(random.Random(3), 50)[1:]:
        points = [(int(r.real), int(r.imag)) for r in p.roots]
        ours = wl.gaussian_coefficients(points, p.multiplicities)
        lib = rootsystem.poly_from_roots(rootsystem.RootSystem(p.roots, p.multiplicities))
        assert ours == lib.low_coefficients


def test_accuracy_check_matches_roots_by_multiplicity():
    p = wl.Problem("p", (1j, 2 + 0j, 3 + 0j), (3, 3, 1), (0j, 0j, 0j), wl.SMALL_CONFIG)
    assert p.accurate((1j, 2, 3))
    assert p.accurate((2, 1j, 3))               # equal multiplicities may trade places
    assert not p.accurate((1j, 3, 2))           # unequal ones may not
    assert not p.accurate((1j, 1j, 3))          # each root found once
    assert not p.accurate((1j, 2 + 1e-9, 3))
    assert not p.accurate((1j, complex("nan"), 3))


def test_cli_ops_are_deterministic_per_seed():
    a = [(op.args, op.stdin) for op in make_cli_ops(random.Random(5))]
    b = [(op.args, op.stdin) for op in make_cli_ops(random.Random(5))]
    c = [(op.args, op.stdin) for op in make_cli_ops(random.Random(6))]
    assert a == b
    assert a != c


class FixedRunner:
    """A runner whose input i always gives outcomes[i]."""

    def __init__(self, outcomes):
        self.outcomes = outcomes
        self.pool_size = len(outcomes)
        self.runs = []

    def run(self, k, traced=False):
        self.runs.append(k)
        return self.outcomes[k % self.pool_size], 0, ""


def test_inputs_are_counted_once_and_all_checked():
    runner = FixedRunner(["ok", "miss", "ok", "wrong_converged"])
    inputs = Inputs(runner)
    for k in (0, 1, 2, 4, 5):               # inputs 0 and 1 twice, 3 never
        inputs.record(k, *runner.run(k)[::2])
    counts = inputs.complete()
    assert runner.runs[5:] == [3]           # only the unreached input is run again
    assert counts == {"ok": 2, "miss": 1, "wrong_converged": 1, "wrong": 0}


def test_inputs_whose_outcomes_differ_are_wrong():
    inputs = Inputs(FixedRunner(["ok", "ok"]))
    inputs.record(0, "ok", "")
    inputs.record(1, "ok", "")
    inputs.record(2, "miss", "")            # input 0 again, another outcome
    assert inputs.complete() == {"ok": 1, "miss": 0, "wrong_converged": 0, "wrong": 1}
