"""The input contract of the public entries: each input that no entry
accepts raises ValueError, and each accepted form keeps its result.

One value rule backs each row: multiplicities are ints >= 1 (bools and
non-integers excluded) for `RootSystem`, `solve`, the steps and the
deflation helpers alike; a real parameter (a tolerance, ``c``, ``q``) is a
number that converts to a float, not a str, a complex, a Decimal NaN or an
int beyond binary64; a complex vector holds numbers, not strs, within
binary64's range.
"""

import re
from decimal import Decimal

import numpy as np
import pytest

from multiroots import (
    MonicPolynomial,
    RootSystem,
    SolveConfig,
    error_bound,
    eval_with_derivative,
    gek_step,
    q_log_derivative,
    s_value,
    solve,
    theorem_check,
)
from multiroots.iteration import q_product

DEMO = RootSystem((-2, 1, 3), (2, 1, 3))
LINE_PAIR = MonicPolynomial((0, -1))  # x^2 - x, roots 0 and 1
SQUARE = MonicPolynomial((0, 0))      # x^2

#: (id, call, exact message or a pattern that the message must match)
REJECTED = [
    ("tolerance Decimal nan",
     lambda: SolveConfig(step_tolerance=Decimal("nan")), "step_tolerance must be"),
    ("tolerance Decimal sNaN",
     lambda: SolveConfig(step_tolerance=Decimal("sNaN")), "step_tolerance must be"),
    ("tolerance str",
     lambda: SolveConfig(step_tolerance="1e-3"),
     re.escape("step_tolerance must be a finite number > 0, got '1e-3'") + "$"),
    ("error_bound Decimal nan",
     lambda: error_bound(Decimal("nan"), 0.5, 1), "c must be positive"),
    ("error_bound int beyond binary64",
     lambda: error_bound(10 ** 400, 0.5, 1), "c must be positive"),
    ("error_bound q outside",
     lambda: error_bound(0.1, Decimal("1.5"), 1), re.escape("q must lie in (0, 1)")),
    ("theorem_check int beyond binary64",
     lambda: theorem_check(DEMO, 10 ** 400, 0.5), "c must be positive"),
    ("theorem_check q infinite",
     lambda: theorem_check(DEMO, 0.01, Decimal("inf")), "q must be finite"),
    *[(f"{helper.__name__} multiplicity {bad!r}",
       lambda helper=helper, bad=bad: helper([0, 1], [1, bad], 0),
       "multiplicities must be")
      for helper in (q_log_derivative, q_product) for bad in (2.5, 0, True, "a")],
    ("s_value degree sum",
     lambda: s_value(SQUARE, [1, 2], [1, 5], 0), "multiplicities sum to 6"),
    ("RootSystem int beyond binary64",
     lambda: RootSystem((10 ** 400,), (1,)), "beyond binary64"),
    ("MonicPolynomial str",
     lambda: MonicPolynomial(("1",)), "str is no number"),
    ("solve int beyond binary64",
     lambda: solve(LINE_PAIR, [1, 1], [10 ** 400, 2]), "beyond binary64"),
    ("solve str config",
     lambda: solve(LINE_PAIR, [1, 1], [0.9, 2.1], "x"), "config must be a SolveConfig"),
    ("eval_with_derivative int beyond binary64",
     lambda: eval_with_derivative(LINE_PAIR, 10 ** 400), "beyond binary64"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in REJECTED],
                         ids=[row[0] for row in REJECTED])
def test_rejected_inputs_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_accepted_forms_keep_their_results():
    assert SolveConfig(step_tolerance=Decimal("1e-3")).step_tolerance == Decimal("1e-3")
    assert error_bound(Decimal(1), 0.5, 1) == 0.0625
    assert theorem_check(DEMO, Decimal("0.01"), 0.5).lhs == \
        theorem_check(DEMO, 0.01, 0.5).lhs
    # numpy scalars, as a caller holding numpy results passes them
    assert theorem_check(DEMO, np.float64(0.01), np.float64(0.5)) == \
        theorem_check(DEMO, 0.01, 0.5)
    assert error_bound(np.float64(0.01), np.float64(0.5), np.int64(2)) == \
        error_bound(0.01, 0.5, 2)
    poly = MonicPolynomial((-6, 11, -6))  # roots 1, 2, 3
    start = (0.9, 2.2, 2.9)
    want = gek_step(poly, start, (1, 1, 1))
    assert gek_step(poly, np.array(start, dtype=complex), np.ones(3, dtype=np.int64)) == want
    assert solve(poly, np.ones(3, dtype=np.int64), np.array(start)) == \
        solve(poly, (1, 1, 1), start)
    assert s_value(poly, start, (1, 1, 1), np.int64(1)) == s_value(poly, start, (1, 1, 1), 1)
