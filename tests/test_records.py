"""The immutable value classes: construction, immutability, equality,
hashing, repr, pickling and copying."""

import copy
import inspect
import pickle

import pytest

from multiroots import (
    MonicPolynomial,
    RootSystem,
    SolveConfig,
    SolveReport,
    SolveStatus,
    TheoremCheckResult,
    TraceRecord,
    UpdateMode,
    poly_from_roots,
    solve,
    theorem_check,
)
from multiroots._record import set_fields
from multiroots.cli import DEMO_DOCUMENT, ProblemSpec, parse_problem

POS = inspect.Parameter.POSITIONAL_OR_KEYWORD

#: Every constructor's parameters, in order; all are positional-or-keyword.
SIGNATURES = {
    SolveConfig: ["max_iterations", "step_tolerance", "residual_tolerance",
                  "update_mode"],
    TraceRecord: ["k", "values", "residuals", "steps", "frozen"],
    SolveReport: ["status", "final", "iterations_used", "trace"],
    MonicPolynomial: ["low_coefficients"],
    RootSystem: ["roots", "multiplicities"],
    TheoremCheckResult: ["c", "q", "d", "n", "M", "N", "lhs",
                         "per_root_margin", "guaranteed", "reason"],
    ProblemSpec: ["poly", "multiplicities", "initial", "config", "roots"],
}


DEMO = parse_problem(DEMO_DOCUMENT)


def demo_report():
    return solve(DEMO.poly, DEMO.multiplicities, DEMO.initial, DEMO.config)


def one_of_each():
    rs = RootSystem(DEMO.roots, DEMO.multiplicities)
    poly = poly_from_roots(rs)
    report = demo_report()
    check = theorem_check(rs, 0.1, 0.5)
    spec = parse_problem('{"roots": [1, 2], "multiplicities": [1, 1], '
                         '"initial": [0.9, 2.1]}')
    return [
        SolveConfig(),
        report.trace[0],
        report,
        poly,
        rs,
        check,
        spec,
    ]


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_constructor_parameters(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == SIGNATURES[cls]
    assert all(p.kind is POS for p in params)


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_annotations_list_the_fields_in_parameter_order(cls):
    # `set_fields` stores its values under the class's annotations, in order
    assert list(cls.__annotations__) == SIGNATURES[cls]


def test_set_fields_takes_one_value_per_field():
    for values in [((1j,),), ((1j,), (1,), None)]:
        record = object.__new__(RootSystem)
        with pytest.raises(ValueError):
            set_fields(record, *values)
    record = object.__new__(RootSystem)
    set_fields(record, (1j,), (1,))
    assert record == RootSystem((1j,), (1,))


def test_construction_by_position_and_keyword():
    assert SolveConfig(20, 1e-15, 1e-26, UpdateMode.SERIAL) == \
        SolveConfig(max_iterations=20, step_tolerance=1e-15,
                    residual_tolerance=1e-26, update_mode=UpdateMode.SERIAL)
    assert MonicPolynomial((1, 2j)) == MonicPolynomial(low_coefficients=(1, 2j))
    assert RootSystem((1, 2j), (2, 1)) == \
        RootSystem(multiplicities=(2, 1), roots=(1, 2j))
    record = TraceRecord(0, (1j,), (0.5,), None, (False,))
    assert record == TraceRecord(k=0, values=(1j,), residuals=(0.5,),
                                 steps=None, frozen=(False,))
    check = TheoremCheckResult(0.1, 0.5, 2.0, 6, 1.0, 2.0, 0.1, (1.0,), True)
    assert check == TheoremCheckResult(
        c=0.1, q=0.5, d=2.0, n=6, M=1.0, N=2.0, lhs=0.1,
        per_root_margin=(1.0,), guaranteed=True)


def test_defaults():
    cfg = SolveConfig()
    assert (cfg.max_iterations, cfg.step_tolerance, cfg.residual_tolerance,
            cfg.update_mode) == (100, 1e-14, 1e-12, UpdateMode.TOTAL_STEP)
    assert SolveConfig(max_iterations=5).step_tolerance == 1e-14
    assert TheoremCheckResult(0.1, 0.5, 2.0, 6, 1.0, 2.0, 0.1, (1.0,),
                              True).reason is None
    spec = ProblemSpec(MonicPolynomial((1,)), (1,), (0.5,), SolveConfig())
    assert spec.roots is None


def test_construction_normalises_fields():
    assert MonicPolynomial([1, 2.5]).low_coefficients == (1 + 0j, 2.5 + 0j)
    rs = RootSystem([1, 2], [1, 2])
    assert rs.roots == (1 + 0j, 2 + 0j)
    assert rs.multiplicities == (1, 2)


@pytest.mark.parametrize("obj", one_of_each(), ids=lambda o: type(o).__name__)
def test_fields_cannot_be_assigned_or_deleted(obj):
    name = SIGNATURES[type(obj)][0]
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, before)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert getattr(obj, name) is before
    assert not hasattr(obj, "not_a_field")


@pytest.mark.parametrize("obj", one_of_each(), ids=lambda o: type(o).__name__)
def test_pickle_and_deepcopy_round_trip(obj):
    for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj),
                  copy.copy(obj)):
        assert type(clone) is type(obj)
        assert clone == obj
        assert repr(clone) == repr(obj)


def test_equality_and_hash():
    assert SolveConfig() == SolveConfig()
    assert SolveConfig() != SolveConfig(max_iterations=99)
    assert hash(SolveConfig()) == hash(SolveConfig())
    assert MonicPolynomial((1, 2j)) == MonicPolynomial((1.0, 2j))
    assert MonicPolynomial((1, 2j)) != MonicPolynomial((1, 3j))
    assert hash(MonicPolynomial((1, 2j))) == hash(MonicPolynomial((1.0, 2j)))
    assert RootSystem((1, 2j), (2, 1)) == RootSystem((1.0, 2j), (2, 1))
    assert RootSystem((1, 2j), (2, 1)) != RootSystem((1, 2j), (1, 2))
    assert len({RootSystem((1, 2j), (2, 1)), RootSystem((1, 2j), (2, 1))}) == 1
    # equality holds within one class only
    assert MonicPolynomial((1,)) != (1 + 0j,)
    assert SolveConfig() != object()
    assert demo_report() == demo_report()
    assert hash(demo_report()) == hash(demo_report())


def test_repr():
    assert repr(SolveConfig()) == (
        "SolveConfig(max_iterations=100, step_tolerance=1e-14, "
        "residual_tolerance=1e-12, "
        "update_mode=<UpdateMode.TOTAL_STEP: 'total'>)"
    )
    assert repr(MonicPolynomial((1, 2j))) == \
        "MonicPolynomial(low_coefficients=((1+0j), 2j))"
    assert repr(RootSystem((1, 2j), (2, 1))) == \
        "RootSystem(roots=((1+0j), 2j), multiplicities=(2, 1))"
    assert repr(theorem_check(RootSystem(DEMO.roots, DEMO.multiplicities),
                              0.1, 0.5)) == (
        "TheoremCheckResult(c=0.1, q=0.5, d=2.0, n=6, M=0.38320507944437887, "
        "N=0.09608604465483017, lhs=0.02223482284983237, "
        "per_root_margin=(1.9777651771501676, 0.9777651771501676, "
        "2.9777651771501676), guaranteed=True, reason=None)"
    )
    report = demo_report()
    # Exact evaluation lands the demo on its roots exactly.
    assert repr(report).startswith(
        "SolveReport(status=<SolveStatus.CONVERGED: 'Converged'>, "
        "final=((-2+0j), (1+0j), (3+0j)), iterations_used=3, "
        "trace=(TraceRecord(k=0, "
        "values=((-3+0j), (0.1+0j), (4+0j)), residuals=(864.0, 96.799941, "
        "108.0), steps=None, frozen=(False, False, False)), TraceRecord(k=1, "
    )


def test_demo_report_round_trip_keeps_its_trace():
    report = demo_report()
    for clone in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert clone.status is SolveStatus.CONVERGED
        assert clone.converged
        assert clone.final == report.final
        assert [r.values for r in clone.trace] == \
            [r.values for r in report.trace]
