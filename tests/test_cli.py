import json
import os
import subprocess
import sys

import pytest

from multiroots import SolveConfig
from multiroots.cli import (
    DEMO_DOCUMENT,
    EXIT_INPUT,
    EXIT_MAX_ITERATIONS,
    EXIT_NO_GUARANTEE,
    EXIT_NUMERICAL,
    EXIT_OK,
    canonical_json,
    main,
    parse_problem,
)
from conftest import DEMO_INITIAL, DEMO_MULTS, DEMO_ROOTS

DEMO_PROBLEM = {
    "roots": [[-2, 0], [1, 0], [3, 0]],
    "multiplicities": [2, 1, 3],
    "initial": [[-3, 0], [0.1, 0], [4, 0]],
    "config": {"step_tolerance": 1e-15, "residual_tolerance": 1e-26},
}

THEOREM_INPUT = {
    "roots": [[-2, 0], [1, 0], [3, 0]],
    "multiplicities": [2, 1, 3],
}


def run_main(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseProblem:
    def test_roots_form(self):
        spec = parse_problem(json.dumps(DEMO_PROBLEM))
        assert spec.poly.low_coefficients == (-6, 0, 50, -45, -108, 108)
        assert spec.roots == (-2, 1, 3)
        assert spec.config.step_tolerance == 1e-15

    def test_coefficients_form(self):
        doc = {
            "coefficients": [[-6, 0], [0, 0], [50, 0], [-45, 0], [-108, 0], [108, 0]],
            "multiplicities": [2, 1, 3],
            "initial": [[-3, 0], [0.1, 0], [4, 0]],
        }
        spec = parse_problem(json.dumps(doc))
        assert spec.roots is None
        assert spec.poly.degree == 6

    def test_bare_numbers_accepted_as_reals(self):
        doc = {
            "coefficients": [-10, 25],
            "multiplicities": [2],
            "initial": [4],
        }
        spec = parse_problem(json.dumps(doc))
        assert spec.initial == (4 + 0j,)

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d.pop("multiplicities"), "multiplicities"),
        (lambda d: d.pop("initial"), "initial"),
        (lambda d: d.update(coefficients=[[1, 0]]), "exactly one"),
        (lambda d: d.update(multiplicities=[2, 1, 0]), "positive"),
        (lambda d: d.update(initial=[[0, 0]]), "initial"),
        (lambda d: d.update(config={"bogus": 1}), "config"),
        # integers beyond binary64's range, which float() cannot convert
        (lambda d: d.update(roots=[10 ** 400, [1, 0], [3, 0]]),
         r"roots\[0\] must be finite"),
        (lambda d: d.update(initial=[[-3, 0], [0.1, -10 ** 400], [4, 0]]),
         r"initial\[1\] must be finite"),
        (lambda d: (d.pop("roots"), d.update(coefficients=[0, 10 ** 400, 0, 0, 0, 0])),
         r"coefficients\[1\] must be finite"),
    ])
    def test_malformed_documents_rejected(self, mutate, fragment):
        from multiroots.cli import ProblemSpecError
        doc = json.loads(json.dumps(DEMO_PROBLEM))
        mutate(doc)
        with pytest.raises(ProblemSpecError, match=fragment):
            parse_problem(json.dumps(doc))

    def test_multiplicity_sum_must_match_coefficient_degree(self):
        # only the coefficients form carries an independent degree to
        # contradict; the roots form is self-consistent by construction
        from multiroots.cli import ProblemSpecError
        doc = {
            "coefficients": [[-6, 0], [0, 0], [50, 0], [-45, 0], [-108, 0], [108, 0]],
            "multiplicities": [2, 1, 2],
            "initial": [[-3, 0], [0.1, 0], [4, 0]],
        }
        with pytest.raises(ProblemSpecError, match="sum to 5"):
            parse_problem(json.dumps(doc))

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d.update(multiplicities=[True, 1, 3]), "positive integers"),
        (lambda d: d.update(multiplicities=[2, True, 3]), "positive integers"),
        (lambda d: d.update(roots=[True, [1, 0], [3, 0]]), r"roots\[0\]"),
        (lambda d: d.update(initial=[[-3, 0], [0.1, False], [4, 0]]),
         r"initial\[1\]"),
        (lambda d: (d.pop("roots"), d.update(coefficients=[True] * 6)),
         r"coefficients\[0\]"),
    ])
    def test_json_booleans_are_not_numbers(self, mutate, fragment):
        # bool is a subclass of int, so true would otherwise read as 1
        from multiroots.cli import ProblemSpecError
        doc = json.loads(json.dumps(DEMO_PROBLEM))
        mutate(doc)
        with pytest.raises(ProblemSpecError, match=fragment):
            parse_problem(json.dumps(doc))

    def test_json_syntax_error_is_line_targeted(self):
        from multiroots.cli import ProblemSpecError
        with pytest.raises(ProblemSpecError, match=r"input:2:"):
            parse_problem('{\n  "roots": oops\n}')


class TestSolveCommand:
    def test_table_matches_published_rows(self, capsys, monkeypatch):
        code, out, _ = run_main(
            capsys, ["solve", "--format", "table"],
            json.dumps(DEMO_PROBLEM), monkeypatch,
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        k1 = [float(tok) for tok in lines[2].split()[1:]]
        for got, want in zip(k1, (-1.98938060918119354,
                                  0.995064651338749428,
                                  3.02604710332169412)):
            assert got == pytest.approx(want, rel=1e-12)
        assert "status: Converged" in out
        assert "iterations_used: 3" in out

    def test_json_output_round_trips_byte_identically(self, capsys, monkeypatch):
        code, out, _ = run_main(
            capsys, ["solve", "--format", "json"],
            json.dumps(DEMO_PROBLEM), monkeypatch,
        )
        assert code == EXIT_OK
        raw = out.rstrip("\n")
        assert canonical_json(json.loads(raw)) == raw

    def test_csv_output_has_header_and_blank_initial_steps(self, capsys,
                                                           monkeypatch):
        code, out, _ = run_main(
            capsys, ["solve", "--format", "csv"],
            json.dumps(DEMO_PROBLEM), monkeypatch,
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        header = lines[0].split(",")
        assert header[0] == "k"
        assert header[1:5] == ["x0_re", "x0_im", "x0_residual", "x0_step"]
        first = lines[1].split(",")
        assert first[4] == ""  # no step magnitude on record 0

    def test_input_file_flag(self, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(DEMO_PROBLEM))
        code, out, _ = run_main(capsys, ["solve", "--input", str(path),
                                         "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "Converged"

    def test_degree_mismatch_exits_one(self, capsys, monkeypatch):
        doc = {
            "coefficients": [[-6, 0], [0, 0], [50, 0], [-45, 0], [-108, 0], [108, 0]],
            "multiplicities": [2, 1, 2],
            "initial": [[-3, 0], [0.1, 0], [4, 0]],
        }
        code, _, err = run_main(capsys, ["solve"], json.dumps(doc), monkeypatch)
        assert code == EXIT_INPUT
        assert "input" in err

    @pytest.mark.parametrize("doc", [
        dict(DEMO_PROBLEM, initial=[[4, 0], [4, 0], [0.1, 0]]),
        # both starts sit on the root 1, so both freeze before any sweep
        {"roots": [[1, 0], [2, 0]], "multiplicities": [1, 1],
         "initial": [[1, 0], [1, 0]]},
    ], ids=["active", "frozen"])
    def test_coincident_initial_exits_three(self, capsys, monkeypatch, doc):
        code, out, _ = run_main(capsys, ["solve", "--format", "json"],
                                json.dumps(doc), monkeypatch)
        assert code == EXIT_NUMERICAL
        assert json.loads(out)["status"] == "Collision"

    def test_max_iterations_exits_two(self, capsys, monkeypatch):
        doc = dict(DEMO_PROBLEM, config={"max_iterations": 1,
                                         "residual_tolerance": 1e-26})
        code, out, _ = run_main(capsys, ["solve", "--format", "json"],
                                json.dumps(doc), monkeypatch)
        assert code == EXIT_MAX_ITERATIONS
        assert json.loads(out)["status"] == "MaxIterations"

    def test_overflowing_expansion_exits_one(self, capsys, monkeypatch):
        doc = {"roots": [1e200, -1e200], "multiplicities": [2, 1],
               "initial": [1, 2]}
        code, out, err = run_main(capsys, ["solve"], json.dumps(doc), monkeypatch)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "input: bad roots: expanded coefficient a_2 overflowed\n"

    @pytest.mark.parametrize("alpha", [107, 10 ** 20])
    def test_huge_multiplicity_exits_one_before_expanding(self, capsys, monkeypatch,
                                                          alpha):
        # Expanding (x - 1)**(10**20) would never finish, so the bound on
        # multiplicities is checked first.
        doc = {"roots": [1, 2], "multiplicities": [alpha, 1], "initial": [0.9, 2.1]}
        for command in ("solve", "order"):
            code, out, err = run_main(capsys, [command], json.dumps(doc), monkeypatch)
            assert code == EXIT_INPUT
            assert out == ""
            assert err == (f"input: multiplicity {alpha} exceeds 106, the input "
                           f"bound checked before the polynomial is expanded\n")

    def test_integer_beyond_binary64_exits_one(self, capsys, monkeypatch):
        big = 10 ** 400
        doc = {"roots": [big, 2], "multiplicities": [1, 1], "initial": [0.9, 2.1]}
        for argv in (["solve"], ["order"],
                     ["check-theorem", "--c", "0.1", "--q", "0.5"]):
            code, out, err = run_main(capsys, argv, json.dumps(doc), monkeypatch)
            assert code == EXIT_INPUT
            assert out == ""
            assert err == f"input: roots[0] must be finite, got {big}\n"

    def test_huge_initial_guesses_exit_three(self, capsys, monkeypatch):
        doc = {"roots": [1, -1], "multiplicities": [2, 1],
               "initial": [1e300, -1e300]}
        code, out, _ = run_main(capsys, ["solve"], json.dumps(doc), monkeypatch)
        assert code == EXIT_NUMERICAL
        assert "status: Overflow" in out.splitlines()

    @pytest.mark.parametrize("config", [
        '"max_iterations": 2.5',
        '"max_iterations": 1e400',
        '"step_tolerance": 1e400',
        # 400-digit integers: Python ints below inf, beyond binary64
        *(pytest.param(f'"{name}": 1' + "0" * 400, id=f"{name}-400-digits")
          for name in ("step_tolerance", "residual_tolerance")),
        # true > 0 holds in Python, yet a bool is no tolerance
        '"step_tolerance": true',
        '"residual_tolerance": true',
    ])
    def test_bad_config_exits_one(self, capsys, monkeypatch, config):
        doc = {k: v for k, v in DEMO_PROBLEM.items() if k != "config"}
        text = json.dumps(doc)[:-1] + ', "config": {' + config + "}}"
        code, out, err = run_main(capsys, ["solve"], text, monkeypatch)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input: bad config: ")

    @pytest.mark.parametrize("value, shown", [('"1e-3"', "'1e-3'"), ("null", "None")])
    def test_non_number_tolerance_exits_one(self, capsys, monkeypatch, value, shown):
        doc = {k: v for k, v in DEMO_PROBLEM.items() if k != "config"}
        text = json.dumps(doc)[:-1] + ', "config": {"step_tolerance": ' + value + "}}"
        code, out, err = run_main(capsys, ["solve"], text, monkeypatch)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == ("input: bad config: step_tolerance must be a finite number > 0, "
                       f"got {shown}\n")

    @pytest.mark.parametrize("command", ["solve", "order", "check-theorem"])
    def test_deeply_nested_document_exits_one(self, capsys, monkeypatch, command):
        argv = [command] + (["--c", "0.1", "--q", "0.5"]
                            if command == "check-theorem" else [])
        code, out, err = run_main(capsys, argv, "[" * 100_000, monkeypatch)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "input: arrays or objects nest too deeply\n"

    def test_collision_threshold_is_an_unknown_field(self, capsys, monkeypatch):
        # collisions follow one fixed rule; no document can set it
        doc = dict(DEMO_PROBLEM, config={"collision_threshold": 1e-12})
        code, out, err = run_main(capsys, ["solve"], json.dumps(doc), monkeypatch)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "input: unknown config fields ['collision_threshold']\n"

    def test_config_update_mode_selects_serial(self, capsys, monkeypatch):
        doc = dict(DEMO_PROBLEM, config=dict(DEMO_PROBLEM["config"],
                                             update_mode="serial"))
        code, out, _ = run_main(capsys, ["solve", "--format", "json"],
                                json.dumps(doc), monkeypatch)
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "Converged"


class TestUsage:
    @pytest.mark.parametrize("argv", [
        [],
        ["solve", "--format", "xml"],
        ["check-theorem", "--c", "0.1"],
        ["check-theorem", "--c", "x", "--q", "0.5"],
        # the solver is configured only by the document's "config" object
        ["solve", "--max-iter", "2.5"],
        ["solve", "--max-iter", "1"],
        ["solve", "--step-tol", "1e-15"],
        ["solve", "--res-tol", "1e-26"],
        ["solve", "--mode", "serial"],
        ["order", "--mode", "serial"],
        # csv is a trace format: only solve and demo write it
        ["order", "--format", "csv"],
        ["check-theorem", "--c", "0.1", "--q", "0.5", "--format", "csv"],
    ], ids=lambda argv: " ".join(argv) or "no-command")
    def test_usage_error_exits_one(self, capsys, monkeypatch, argv):
        code, out, err = run_main(capsys, argv, json.dumps(DEMO_PROBLEM),
                                  monkeypatch)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("usage: multiroots")
        assert "error: " in err

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]],
                             ids=" ".join)
    def test_help_exits_zero(self, capsys, argv):
        code, out, err = run_main(capsys, argv)
        assert code == EXIT_OK
        assert out.startswith("usage: multiroots")
        assert err == ""


class TestDemoCommand:
    def test_demo_document_is_the_showcase_problem(self):
        spec = parse_problem(DEMO_DOCUMENT)
        assert spec.roots == DEMO_ROOTS
        assert spec.multiplicities == DEMO_MULTS
        assert spec.initial == DEMO_INITIAL
        assert spec.config == SolveConfig(max_iterations=20, step_tolerance=1e-15,
                                          residual_tolerance=1e-26)

    def test_readme_shows_the_demo_document(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            assert f"```json\n{DEMO_DOCUMENT}\n```" in fh.read()

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_demo_is_solve_on_the_demo_document(self, capsys, monkeypatch, fmt):
        demo = run_main(capsys, ["demo", "--format", fmt])
        assert demo == run_main(capsys, ["solve", "--format", fmt],
                                DEMO_DOCUMENT, monkeypatch)
        assert demo[0] == EXIT_OK

    def test_demo_converges_in_three_iterations(self, capsys):
        code, out, _ = run_main(capsys, ["demo"])
        assert code == EXIT_OK
        assert "iterations_used: 3" in out
        # 18 decimal digits on display
        assert "-3.000000000000000000" in out

    def test_demo_json(self, capsys):
        code, out, _ = run_main(capsys, ["demo", "--format", "json"])
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["iterations_used"] == 3
        finals = [complex(re, im) for re, im in data["final"]]
        for got, want in zip(finals, (-2, 1, 3)):
            assert abs(got - want) <= 1e-14


class TestCheckTheoremCommand:
    def test_guaranteed_exits_zero(self, capsys, monkeypatch):
        code, out, _ = run_main(
            capsys, ["check-theorem", "--c", "0.01", "--q", "0.5",
                     "--format", "json"],
            json.dumps(THEOREM_INPUT), monkeypatch,
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["guaranteed"] is True
        assert data["d"] == 2
        assert data["lhs"] == pytest.approx(1.1229465668532919e-05, rel=1e-10)

    def test_gap_violation_exits_four(self, capsys, monkeypatch):
        code, out, _ = run_main(
            capsys, ["check-theorem", "--c", "1.5", "--q", "0.5",
                     "--format", "json"],
            json.dumps(THEOREM_INPUT), monkeypatch,
        )
        assert code == EXIT_NO_GUARANTEE
        assert json.loads(out)["guaranteed"] is False

    def test_large_q_exits_four(self, capsys, monkeypatch):
        code, _, _ = run_main(
            capsys, ["check-theorem", "--c", "0.01", "--q", "2"],
            json.dumps(THEOREM_INPUT), monkeypatch,
        )
        assert code == EXIT_NO_GUARANTEE

    def test_negative_q_exits_one(self, capsys, monkeypatch):
        code, out, err = run_main(
            capsys, ["check-theorem", "--c", "0.01", "--q", "-1"],
            json.dumps(THEOREM_INPUT), monkeypatch,
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "q must be positive" in err

    def test_overflowing_growth_factors_exit_four(self, capsys, monkeypatch):
        # n = 600 and c/(d-2c) = 4.5: (1 + c/(d-2c))**n overflows binary64.
        doc = {"roots": [0, 1], "multiplicities": [300, 300]}
        code, out, err = run_main(
            capsys, ["check-theorem", "--c", "0.45", "--q", "0.5",
                     "--format", "json"],
            json.dumps(doc), monkeypatch,
        )
        assert code == EXIT_NO_GUARANTEE
        assert err == ""
        data = json.loads(out)
        assert data["guaranteed"] is False
        assert data["M"] is None and data["N"] is None and data["lhs"] is None
        assert data["per_root_margin"] == [None, None]
        assert "overflows" in data["reason"]

    @pytest.mark.parametrize("doc,fragment", [
        ({"roots": [1, 2], "multiplicities": [True, 1]}, "'multiplicities'"),
        ({"roots": [[1, True], 2], "multiplicities": [1, 1]}, "roots[0]"),
    ])
    def test_json_booleans_exit_one(self, capsys, monkeypatch, doc, fragment):
        code, out, err = run_main(
            capsys, ["check-theorem", "--c", "0.1", "--q", "0.5",
                     "--format", "json"],
            json.dumps(doc), monkeypatch,
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input: ") and fragment in err

    def test_single_root_exits_one(self, capsys, monkeypatch):
        doc = {"roots": [[1, 0]], "multiplicities": [6]}
        code, _, err = run_main(
            capsys, ["check-theorem", "--c", "0.01", "--q", "0.5"],
            json.dumps(doc), monkeypatch,
        )
        assert code == EXIT_INPUT


class TestOrderCommand:
    def test_demo_problem_reports_orders_or_na(self, capsys, monkeypatch):
        code, out, _ = run_main(
            capsys, ["order", "--format", "json"],
            json.dumps(DEMO_PROBLEM), monkeypatch,
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data["orders"]) == 3
        for order in data["orders"]:
            assert order is None or 3.5 <= order <= 4.5

    def test_table_format_prints_na(self, capsys, monkeypatch):
        code, out, _ = run_main(capsys, ["order"],
                                json.dumps(DEMO_PROBLEM), monkeypatch)
        assert code == EXIT_OK
        assert "root 0:" in out

    def test_requires_roots_form(self, capsys, monkeypatch):
        doc = {
            "coefficients": [-10, 25],
            "multiplicities": [2],
            "initial": [4],
        }
        code, _, err = run_main(capsys, ["order"], json.dumps(doc), monkeypatch)
        assert code == EXIT_INPUT
        assert "true roots" in err

    def test_short_trace_reports_na(self, capsys, monkeypatch):
        doc = json.loads(json.dumps(DEMO_PROBLEM))
        doc["initial"] = [[-2, 0], [1, 0], [3, 0]]  # exact: 0-step trace
        code, out, _ = run_main(capsys, ["order", "--format", "json"],
                                json.dumps(doc), monkeypatch)
        assert code == EXIT_OK
        assert json.loads(out)["orders"] == [None, None, None]

    @pytest.mark.parametrize("fmt, want", [
        ("json", '{"status": "Collision", "iterations_used": 0, "orders": null}\n'),
        ("table", "status: Collision\niterations_used: 0\norders: n/a\n"),
    ])
    def test_failed_solve_prints_the_order_fields(self, capsys, monkeypatch, fmt, want):
        # two starts on one root: Collision, exit 3, and the same three
        # fields as after a fit, with no orders
        doc = {"roots": [[1, 0], [2, 0]], "multiplicities": [1, 1],
               "initial": [[1, 0], [1, 0]]}
        code, out, _ = run_main(capsys, ["order", "--format", fmt],
                                json.dumps(doc), monkeypatch)
        assert code == EXIT_NUMERICAL
        assert out == want

    def test_simple_root_cubic_orders_quartic_or_na(self, capsys, monkeypatch):
        # double precision saturates fourth-order runs after two usable
        # pairs, so per-root estimates are n/a unless the trace is unusually
        # long; whatever is reported must be fourth-order
        doc = {
            "roots": [[0, 0], [1, 0], [2, 0]],
            "multiplicities": [1, 1, 1],
            "initial": [[-0.25, 0], [1.2, 0], [2.25, 0]],
            "config": {"step_tolerance": 1e-15, "residual_tolerance": 1e-26},
        }
        code, out, _ = run_main(capsys, ["order", "--format", "json"],
                                json.dumps(doc), monkeypatch)
        assert code == EXIT_OK
        for order in json.loads(out)["orders"]:
            assert order is None or 3.5 <= order <= 4.5


def test_console_entry_point_runs_demo():
    proc = subprocess.run(
        [sys.executable, "-m", "multiroots", "demo", "--format", "json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["iterations_used"] == 3


def test_closed_stdout_exits_one_without_traceback():
    # The read end of stdout is closed before the child writes, as when
    # `multiroots solve ... | head -c 200` has stopped reading.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "multiroots", "solve", "--format", "json"],
            input=json.dumps(DEMO_PROBLEM), stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr == ""
