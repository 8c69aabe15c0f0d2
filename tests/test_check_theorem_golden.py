"""Golden bytes of `multiroots check-theorem`: stdout and exit code for
both output formats on five (roots, c, q) cases, one per way the check can
end (guaranteed; q >= 1; d - 2c <= 0; the inequality fails; M or N
overflows binary64)."""

import io
import json
import sys

import pytest

from multiroots.cli import main

DEMO_ROOTS = {"roots": [-2, 1, 3], "multiplicities": [2, 1, 3]}
HUGE_MULTIPLICITIES = {"roots": [0, 1], "multiplicities": [300, 300]}

CASES = {
    "guaranteed": (DEMO_ROOTS, "0.1", "0.5", 0, (
        '{"c": 0.10000000000000001, "q": 0.5, "d": 2, "n": 6, '
        '"M": 0.38320507944437887, "N": 0.096086044654830172, '
        '"lhs": 0.022234822849832369, "per_root_margin": '
        '[1.9777651771501676, 0.97776517715016764, 2.9777651771501676], '
        '"guaranteed": true, "reason": null}\n'
    ), (
        "c: 0.10000000000000001\n"
        "q: 0.5\n"
        "d: 2\n"
        "n: 6\n"
        "M: 0.38320507944437887\n"
        "N: 0.096086044654830172\n"
        "lhs: 0.022234822849832369\n"
        "per_root_margin: [1.9777651771501676, 0.97776517715016764, "
        "2.9777651771501676]\n"
        "guaranteed: True\n"
        "reason: None\n"
    )),
    "q-not-below-one": (DEMO_ROOTS, "0.1", "1.5", 4, (
        '{"c": 0.10000000000000001, "q": 1.5, "d": 2, "n": 6, '
        '"M": 0.38320507944437887, "N": 0.096086044654830172, '
        '"lhs": 0.022234822849832369, "per_root_margin": '
        '[1.9777651771501676, 0.97776517715016764, 2.9777651771501676], '
        '"guaranteed": false, "reason": "q = 1.5 is not below 1"}\n'
    ), (
        "c: 0.10000000000000001\n"
        "q: 1.5\n"
        "d: 2\n"
        "n: 6\n"
        "M: 0.38320507944437887\n"
        "N: 0.096086044654830172\n"
        "lhs: 0.022234822849832369\n"
        "per_root_margin: [1.9777651771501676, 0.97776517715016764, "
        "2.9777651771501676]\n"
        "guaranteed: False\n"
        "reason: q = 1.5 is not below 1\n"
    )),
    "gap-not-positive": (DEMO_ROOTS, "2", "0.5", 4, (
        '{"c": 2, "q": 0.5, "d": 2, "n": 6, "M": null, "N": null, '
        '"lhs": null, "per_root_margin": [null, null, null], '
        '"guaranteed": false, "reason": "d - 2c = -2 is not positive"}\n'
    ), (
        "c: 2\n"
        "q: 0.5\n"
        "d: 2\n"
        "n: 6\n"
        "M: null\n"
        "N: null\n"
        "lhs: null\n"
        "per_root_margin: [null, null, null]\n"
        "guaranteed: False\n"
        "reason: d - 2c = -2 is not positive\n"
    )),
    "inequality-fails": (DEMO_ROOTS, "0.45", "0.5", 4, (
        '{"c": 0.45000000000000001, "q": 0.5, "d": 2, "n": 6, '
        '"M": 6.8276982929885026, "N": 31.331947364593944, '
        '"lhs": 714.1777855088751, "per_root_margin": '
        '[-712.1777855088751, -713.1777855088751, -711.1777855088751], '
        '"guaranteed": false, "reason": "inequality fails: lhs = 714.178 '
        'reaches the smallest multiplicity 1"}\n'
    ), (
        "c: 0.45000000000000001\n"
        "q: 0.5\n"
        "d: 2\n"
        "n: 6\n"
        "M: 6.8276982929885026\n"
        "N: 31.331947364593944\n"
        "lhs: 714.1777855088751\n"
        "per_root_margin: [-712.1777855088751, -713.1777855088751, "
        "-711.1777855088751]\n"
        "guaranteed: False\n"
        "reason: inequality fails: lhs = 714.178 reaches the smallest "
        "multiplicity 1\n"
    )),
    "growth-factors-overflow": (HUGE_MULTIPLICITIES, "0.45", "0.5", 4, (
        '{"c": 0.45000000000000001, "q": 0.5, "d": 1, "n": 600, '
        '"M": null, "N": null, "lhs": null, "per_root_margin": [null, null], '
        '"guaranteed": false, "reason": "inequality fails: lhs = inf '
        'reaches the smallest multiplicity 300 (M or N overflows binary64)"}\n'
    ), (
        "c: 0.45000000000000001\n"
        "q: 0.5\n"
        "d: 1\n"
        "n: 600\n"
        "M: null\n"
        "N: null\n"
        "lhs: null\n"
        "per_root_margin: [null, null]\n"
        "guaranteed: False\n"
        "reason: inequality fails: lhs = inf reaches the smallest "
        "multiplicity 300 (M or N overflows binary64)\n"
    )),
}


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("case", list(CASES))
def test_check_theorem_output_is_pinned(capsys, monkeypatch, case, fmt):
    doc, c, q, want_code, want_json, want_table = CASES[case]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code = main(["check-theorem", "--c", c, "--q", q, "--format", fmt])
    captured = capsys.readouterr()
    assert code == want_code
    assert captured.out == (want_json if fmt == "json" else want_table)
    assert captured.err == ""
