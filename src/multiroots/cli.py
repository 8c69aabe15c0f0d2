"""Command-line front end: solve, demo, check-theorem, order.

Problems arrive as a single JSON document (file or stdin): either explicit
monic coefficients or roots-with-multiplicities, plus initial
approximations and an optional solver ``config`` object, the only way to
configure a solve.  Complex numbers are two-element arrays [re, im]; bare
numbers are accepted as reals.  ``demo`` is ``solve`` on the built-in
`DEMO_DOCUMENT`.

JSON booleans are not numbers here, although Python's ``bool`` is an
``int``.

Formats: ``solve`` and ``demo`` write json, csv or table; ``check-theorem``
and ``order`` write json or table.

Exit codes: 0 ok/guaranteed (and ``--help``), 1 input error, usage error
(argparse's message on stderr) or standard output closed by its reader
before the output was written (``... | head``), 2 max-iterations reached
(``solve`` and ``demo``; ``order`` exits 0 whenever it fits orders, after
Converged or MaxIterations), 3 numerical failure (collision/singular
denominator/overflow), 4 guarantee not established.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

from ._record import Record, set_fields
from .errors import DegenerateSystemError, InsufficientDataError, MultirootsError
from .iteration import (
    SolveConfig,
    SolveReport,
    SolveStatus,
    UpdateMode,
    solve,
)
from .polynomial import MonicPolynomial, is_finite
from .rootsystem import RootSystem, poly_from_roots
from .theory import estimate_order, theorem_check

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MAX_ITERATIONS = 2
EXIT_NUMERICAL = 3
EXIT_NO_GUARANTEE = 4

_STATUS_EXIT = {
    SolveStatus.CONVERGED: EXIT_OK,
    SolveStatus.MAX_ITERATIONS: EXIT_MAX_ITERATIONS,
    SolveStatus.COLLISION: EXIT_NUMERICAL,
    SolveStatus.SINGULAR_DENOMINATOR: EXIT_NUMERICAL,
    SolveStatus.OVERFLOW: EXIT_NUMERICAL,
}

# Built-in demonstration problem: a degree-6 polynomial with a double, a
# simple and a triple root, solved from deliberately rough guesses.  The
# residual tolerance keeps every component live through the shallow-residual
# phase near the multiple roots (the exact residual at the triple root is
# ~1.6e-23 after two sweeps); freezing then catches the exact landings.
DEMO_DOCUMENT = """{
  "roots": [-2, 1, 3],
  "multiplicities": [2, 1, 3],
  "initial": [-3, 0.1, 4],
  "config": {"max_iterations": 20, "step_tolerance": 1e-15,
             "residual_tolerance": 1e-26}
}"""


#: Largest multiplicity `solve` and `order` accept: an input bound, checked
#: before anything is expanded.  Evaluation is exact, so it does not limit
#: how closely a multiple root is found.  Rounded coefficients do: they move
#: a root of multiplicity alpha by a relative 2**(-53 / alpha) or so, while
#: exactly representable ones (as in the demo) move it not at all.
_MAX_MULTIPLICITY = 106


class ProblemSpecError(ValueError):
    """Malformed problem document."""


class ProblemSpec(Record):
    """A solver problem: polynomial source, multiplicities, start vector."""

    poly: MonicPolynomial
    multiplicities: tuple[int, ...]
    initial: tuple[complex, ...]
    config: SolveConfig
    roots: Optional[tuple[complex, ...]]  # known true roots, if given

    def __init__(
        self,
        poly: MonicPolynomial,
        multiplicities: tuple[int, ...],
        initial: tuple[complex, ...],
        config: SolveConfig,
        roots: Optional[tuple[complex, ...]] = None,
    ) -> None:
        set_fields(self, poly, multiplicities, initial, config, roots)


def _is_number(obj) -> bool:
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _as_complex(obj, what: str) -> complex:
    if _is_number(obj):
        parts = (obj, 0.0)
    elif isinstance(obj, list) and len(obj) == 2 and all(map(_is_number, obj)):
        parts = obj
    else:
        raise ProblemSpecError(
            f"input: {what} must be a number or a two-element [re, im] array, "
            f"got {obj!r}"
        )
    try:
        value = complex(float(parts[0]), float(parts[1]))
    except OverflowError:  # an int beyond binary64's range, such as 10**400
        value = None
    if value is None or not is_finite(value):
        raise ProblemSpecError(f"input: {what} must be finite, got {obj!r}")
    return value


def _as_complex_list(obj, what: str) -> tuple[complex, ...]:
    if not isinstance(obj, list) or not obj:
        raise ProblemSpecError(f"input: {what} must be a non-empty array")
    return tuple(_as_complex(v, f"{what}[{i}]") for i, v in enumerate(obj))


def _as_multiplicities(obj) -> tuple[int, ...]:
    if (not isinstance(obj, list) or not obj
            or not all(isinstance(a, int) and not isinstance(a, bool) and a >= 1
                        for a in obj)):
        raise ProblemSpecError(
            "input: 'multiplicities' must be an array of positive integers"
        )
    return tuple(obj)


def parse_config(data: dict) -> SolveConfig:
    """Build a SolveConfig from a JSON config object."""
    known = {
        "max_iterations", "step_tolerance", "residual_tolerance", "update_mode",
    }
    unknown = set(data) - known
    if unknown:
        raise ProblemSpecError(f"input: unknown config fields {sorted(unknown)}")
    kwargs = {key: data[key] for key in known - {"update_mode"} if key in data}
    if "update_mode" in data:
        mode = data["update_mode"]
        try:
            kwargs["update_mode"] = UpdateMode(mode)
        except ValueError:
            raise ProblemSpecError(
                f"input: update_mode must be 'total' or 'serial', got {mode!r}"
            ) from None
    try:
        return SolveConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProblemSpecError(f"input: bad config: {exc}") from None


def _load_document(text: str) -> tuple[dict, tuple[int, ...], Optional[tuple[complex, ...]]]:
    """Decode a JSON problem object: the object, its multiplicities and,
    when it has them, its roots (one per multiplicity)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemSpecError(
            f"input:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ProblemSpecError("input: arrays or objects nest too deeply") from None
    if not isinstance(data, dict):
        raise ProblemSpecError("input: top-level document must be an object")
    if "multiplicities" not in data:
        raise ProblemSpecError("input: 'multiplicities' is required")
    mults = _as_multiplicities(data["multiplicities"])
    roots = None
    if "roots" in data:
        roots = _as_complex_list(data["roots"], "roots")
        if len(roots) != len(mults):
            raise ProblemSpecError(
                f"input: {len(roots)} roots but {len(mults)} multiplicities"
            )
    return data, mults, roots


def parse_problem(text: str) -> ProblemSpec:
    """Parse a problem JSON document into a validated ProblemSpec.

    A multiplicity above 106 (`_MAX_MULTIPLICITY`) is rejected before anything
    is expanded.
    """
    data, mults, roots = _load_document(text)
    if max(mults) > _MAX_MULTIPLICITY:
        raise ProblemSpecError(
            f"input: multiplicity {max(mults)} exceeds {_MAX_MULTIPLICITY}, "
            f"the input bound checked before the polynomial is expanded"
        )
    if ("coefficients" in data) == (roots is not None):
        raise ProblemSpecError(
            "input: provide exactly one polynomial source, either "
            "'coefficients' or 'roots'"
        )
    if roots is not None:
        try:
            poly = poly_from_roots(RootSystem(roots, mults))
        except ValueError as exc:
            raise ProblemSpecError(f"input: bad roots: {exc}") from None
    else:
        coeffs = _as_complex_list(data["coefficients"], "coefficients")
        try:
            poly = MonicPolynomial(coeffs)
        except ValueError as exc:
            raise ProblemSpecError(f"input: bad coefficients: {exc}") from None
        if sum(mults) != poly.degree:
            raise ProblemSpecError(
                f"input: multiplicities sum to {sum(mults)} but the "
                f"polynomial degree is {poly.degree}"
            )

    if "initial" not in data:
        raise ProblemSpecError("input: 'initial' approximations are required")
    initial = _as_complex_list(data["initial"], "initial")
    if len(initial) != len(mults):
        raise ProblemSpecError(
            f"input: {len(initial)} initial approximations but "
            f"{len(mults)} multiplicities"
        )

    cfg_data = data.get("config", {})
    if not isinstance(cfg_data, dict):
        raise ProblemSpecError("input: 'config' must be an object")
    return ProblemSpec(poly=poly, multiplicities=mults, initial=initial,
                       config=parse_config(cfg_data), roots=roots)


# ---------------------------------------------------------------------------
# output formatting

def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form (round-trips binary64)."""
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(x + 0.0, ".17g")  # +0.0 normalizes -0.0


def canonical_json(obj) -> str:
    """Serialize plain data deterministically: insertion-ordered keys and
    17-significant-digit floats, so parse-then-reserialize is byte-stable."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}: {canonical_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _complex_pair(z: complex) -> list[float]:
    return [z.real + 0.0, z.imag + 0.0]


def report_to_data(report: SolveReport) -> dict:
    """SolveReport as plain JSON-ready data with canonical field order."""
    return {
        "status": report.status.value,
        "iterations_used": report.iterations_used,
        "final": [_complex_pair(v) for v in report.final],
        "trace": {
            "iterations": [
                {
                    "k": rec.k,
                    "values": [_complex_pair(v) for v in rec.values],
                    "residuals": list(rec.residuals),
                    "steps": None if rec.steps is None else list(rec.steps),
                    "frozen": list(rec.frozen),
                }
                for rec in report.trace
            ]
        },
    }


def report_to_csv(report: SolveReport) -> str:
    """Trace as CSV: k, then re/im/residual/step per root, header first."""
    m = len(report.final)
    header = ["k"]
    for i in range(m):
        header += [f"x{i}_re", f"x{i}_im", f"x{i}_residual", f"x{i}_step"]
    lines = [",".join(header)]
    for rec in report.trace:
        row = [str(rec.k)]
        for i in range(m):
            row.append(format_float(rec.values[i].real))
            row.append(format_float(rec.values[i].imag))
            row.append(format_float(rec.residuals[i]))
            row.append("" if rec.steps is None else format_float(rec.steps[i]))
        lines.append(",".join(row))
    return "\n".join(lines)


def _table_cell(z: complex) -> str:
    # 18 decimal digits; purely real values print without an imaginary part
    if z.imag == 0.0:
        return f"{z.real:.18f}"
    return f"{z.real:.18f}{z.imag:+.18f}j"


def report_to_table(report: SolveReport) -> str:
    m = len(report.final)
    lines = ["  ".join(["k".rjust(3)] + [f"x{i + 1}".rjust(24) for i in range(m)])]
    for rec in report.trace:
        cells = [str(rec.k).rjust(3)] + [_table_cell(v).rjust(24) for v in rec.values]
        lines.append("  ".join(cells))
    lines.append(f"status: {report.status.value}")
    lines.append(f"iterations_used: {report.iterations_used}")
    finals = ", ".join(
        f"{format_float(v.real)}{'+' if v.imag >= 0 else '-'}{format_float(abs(v.imag))}j"
        for v in report.final
    )
    lines.append(f"final: {finals}")
    return "\n".join(lines)


def emit_report(report: SolveReport, fmt: str, out) -> None:
    if fmt == "json":
        print(canonical_json(report_to_data(report)), file=out)
    elif fmt == "csv":
        print(report_to_csv(report), file=out)
    else:
        print(report_to_table(report), file=out)


# ---------------------------------------------------------------------------
# commands

def _read_input(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ProblemSpecError(f"input: cannot read {path}: {exc}") from None


def cmd_solve(args) -> int:
    text = DEMO_DOCUMENT if args.command == "demo" else _read_input(args.input)
    spec = parse_problem(text)
    report = solve(spec.poly, spec.multiplicities, spec.initial, spec.config)
    emit_report(report, args.format, sys.stdout)
    return _STATUS_EXIT[report.status]


def _print_fields(fmt: str, data: dict, lines) -> None:
    # ``data`` as one canonical JSON object, or else ``lines`` one per line.
    print(canonical_json(data) if fmt == "json" else "\n".join(lines))


def cmd_check_theorem(args) -> int:
    _, mults, roots = _load_document(_read_input(args.input))
    if roots is None:
        raise ProblemSpecError("input: check-theorem needs 'roots'")
    result = theorem_check(RootSystem(roots, mults), args.c, args.q)
    lines = []
    for key, value in vars(result).items():
        if isinstance(value, float):
            value = format_float(value)
        elif isinstance(value, tuple):
            value = "[" + ", ".join(map(format_float, value)) + "]"
        lines.append(f"{key}: {value}")
    _print_fields(args.format, vars(result), lines)
    return EXIT_OK if result.guaranteed else EXIT_NO_GUARANTEE


def cmd_order(args) -> int:
    spec = parse_problem(_read_input(args.input))
    if spec.roots is None:
        raise ProblemSpecError(
            "input: order estimation needs the true roots; supply the "
            "polynomial as 'roots' with 'multiplicities'"
        )
    report = solve(spec.poly, spec.multiplicities, spec.initial, spec.config)
    data = {"status": report.status.value,
            "iterations_used": report.iterations_used, "orders": None}
    if report.status not in (SolveStatus.CONVERGED, SolveStatus.MAX_ITERATIONS):
        _print_fields(args.format, data, [f"{key}: {'n/a' if value is None else value}"
                                          for key, value in data.items()])
        return _STATUS_EXIT[report.status]
    rs = RootSystem(spec.roots, spec.multiplicities)
    try:
        orders = estimate_order(report.trace, rs)
    except InsufficientDataError:
        orders = [None] * rs.m
    data["orders"] = orders
    _print_fields(args.format, data, [
        f"root {i}: order {'n/a' if order is None else format_float(order)}"
        for i, order in enumerate(orders)])
    return EXIT_OK


_REPORT_FORMATS = ("json", "csv", "table")


def _add_common_flags(parser, formats=("json", "table"), with_input=True):
    parser.add_argument("--format", choices=formats,
                        default="table", help="output format (default: table)")
    if with_input:
        parser.add_argument("--input", default=None,
                            help="problem JSON file (default: stdin)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiroots",
        description="Simultaneously find all roots of a monic complex "
                    "polynomial with known multiplicities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem from JSON input")
    _add_common_flags(p_solve, _REPORT_FORMATS)
    p_solve.set_defaults(func=cmd_solve)

    p_demo = sub.add_parser("demo", help="run the built-in sextic demo problem")
    _add_common_flags(p_demo, _REPORT_FORMATS, with_input=False)
    p_demo.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check-theorem",
                             help="evaluate the convergence guarantee")
    _add_common_flags(p_check)
    p_check.add_argument("--c", type=float, required=True,
                         help="initial-approximation radius constant")
    p_check.add_argument("--q", type=float, required=True,
                         help="contraction base, must be < 1 for a guarantee")
    p_check.set_defaults(func=cmd_check_theorem)

    p_order = sub.add_parser("order",
                             help="solve and estimate per-root convergence order")
    _add_common_flags(p_order)
    p_order.set_defaults(func=cmd_order)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage message, or the --help text
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush at
        # exit cannot raise again (the recipe of the `signal` module docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_INPUT
    except ProblemSpecError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, DegenerateSystemError) as exc:
        print(f"input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MultirootsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
