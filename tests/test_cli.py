import json
import subprocess
import sys

import pytest

from multiroots.cli import (
    EXIT_INPUT,
    EXIT_MAX_ITERATIONS,
    EXIT_NO_GUARANTEE,
    EXIT_NUMERICAL,
    EXIT_OK,
    canonical_json,
    main,
    parse_problem,
)

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

    def test_coincident_initial_exits_three(self, capsys, monkeypatch):
        doc = json.loads(json.dumps(DEMO_PROBLEM))
        doc["initial"] = [[4, 0], [4, 0], [0.1, 0]]
        code, out, _ = run_main(capsys, ["solve", "--format", "json"],
                                json.dumps(doc), monkeypatch)
        assert code == EXIT_NUMERICAL
        assert json.loads(out)["status"] == "Collision"

    def test_max_iterations_exits_two(self, capsys, monkeypatch):
        code, out, _ = run_main(
            capsys, ["solve", "--format", "json", "--max-iter", "1",
                     "--res-tol", "1e-26"],
            json.dumps(DEMO_PROBLEM), monkeypatch,
        )
        assert code == EXIT_MAX_ITERATIONS
        assert json.loads(out)["status"] == "MaxIterations"

    def test_mode_flag_selects_serial(self, capsys, monkeypatch):
        code, out, _ = run_main(
            capsys, ["solve", "--format", "json", "--mode", "serial"],
            json.dumps(DEMO_PROBLEM), monkeypatch,
        )
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "Converged"


class TestDemoCommand:
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
