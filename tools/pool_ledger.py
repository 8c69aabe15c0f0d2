"""Print whole-pool counts for a benchmark workload: statuses, sweeps,
evaluation calls, Horner passes by path and the deflation kernel's checks.

    python3 tools/pool_ledger.py --workload wide_total --seed 1501
    python3 tools/pool_ledger.py --workload wide_quadratic --seed 1501 --count 7

The pool is the one ``bench/worker.py`` times for that workload and seed
(``--count`` takes a smaller pool from the same generator), solved in order
as ``tools/trace_digest.py`` solves it, in one process, so the point memo
of ``eval_with_derivative`` carries from one solve to the next as it does
in the benchmark.  The counts are those of the library's own functions,
wrapped where ``multiroots`` looks them up:

- statuses, accurate solves (the generator's accuracy check) and sweeps
  (iterations used), over the pool;
- evaluation calls (``eval_with_derivative``, memo hits included) and
  Horner passes (calls that missed the memo);
- exact passes, complex and real (a fixed-grid fall-back runs one too);
- fixed-grid passes that decided, and those that fell back to the exact
  pass (an interval that does not round to one number, or an overflow);
- the fall-backs by cause: those where the exact pass's pair has a part
  that is exactly 0, and the others (an exact pass that overflows among
  them);
- passes where z' != z (a part of z rounded to the grid 2^min(0, e-110));
- fixed-grid passes by g, the power with A(x) = P(x^g);
- collision scans (calls of ``rootsystem._first_collision`` from
  ``iteration``: every kernel build, each solve's final check, and the
  checks of `q_log_derivative`, `q_product` and `s_value`; `RootSystem`'s
  own are not counted) and, of those, the ones whose screen found a pair
  within the limit, not both frozen, and ran the full scan
  (``rootsystem._scan_pairs``);
- deflation rows formed in one loop (``iteration._row_sums``: each active
  row of a total sweep, and the rows of `q_log_derivative` and
  `q_product`) and, of those, the rows formed again on the reference path
  (``_row``, then ``_reduce_row``) after a power or a product that is
  not finite;
- rows of the serial sweep's pair-term table reduced (``_reduce_row``
  outside ``_row_sums``: each active row at each serial build).

Standard library only; run from anywhere, with the library importable
(``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import collections
import sys
from math import frexp, ldexp

import trace_digest  # first: it puts bench/ on sys.path for worker
from worker import POOL_SIZE

from multiroots import iteration, polynomial, rootsystem


def _moved(x: float, y: float) -> bool:
    # whether rounding the parts of z to its grid changes z (see
    # `eval_with_derivative`)
    grid = max(0, polynomial._GRID_BITS - frexp(max(abs(x), abs(y)))[1])
    return any(ldexp(round(ldexp(p, grid)), -grid) != p for p in (x, y))


def pool_ledger(workload: str, seed: int, count: int) -> list[str]:
    """The ledger's lines for the pool."""
    counts = collections.Counter()
    steps = collections.Counter()
    saved = {name: getattr(polynomial, name) for name in
             ("_horner_pair", "_exact_pair", "_exact_real_pair", "_fixed_grid_pair")}
    kernel = {name: getattr(iteration, name) for name in
              ("eval_with_derivative", "_first_collision", "_row_sums", "_row",
               "_reduce_row")}
    scan_pairs = rootsystem._scan_pairs
    in_row_sums = [False]
    in_check = [False]

    def counted_eval(poly, z):
        counts["eval"] += 1
        return kernel["eval_with_derivative"](poly, z)

    def counted_horner(scaled, x, y):
        counts["horner"] += 1
        counts["moved"] += _moved(x, y)
        fell_back = counts["fell_back"]
        pair = None
        try:
            pair = saved["_horner_pair"](scaled, x, y)
        finally:
            if counts["fell_back"] > fell_back:
                zero = pair is not None and 0.0 in (pair[0].real, pair[0].imag,
                                                    pair[1].real, pair[1].imag)
                counts["fell_back_zero" if zero else "fell_back_other"] += 1
        return pair

    def counted_check(values, limit, frozen=None):
        counts["checks"] += 1
        in_check[0] = True
        try:
            return kernel["_first_collision"](values, limit, frozen)
        finally:
            in_check[0] = False

    def counted_scan(*args):
        counts["scans"] += in_check[0]
        return scan_pairs(*args)

    def counted_row_sums(*args):
        counts["rows"] += 1
        in_row_sums[0] = True
        try:
            return kernel["_row_sums"](*args)
        finally:
            in_row_sums[0] = False

    def counted_row(*args):
        counts["reference_rows"] += in_row_sums[0]
        return kernel["_row"](*args)

    def counted_reduce_row(row):
        counts["table_rows"] += not in_row_sums[0]
        return kernel["_reduce_row"](row)

    def counted_exact(name):
        def counted(*args):
            counts[name] += 1
            return saved[name](*args)
        return counted

    def counted_fixed_grid(*args):
        steps[args[-1]] += 1
        try:
            pair = saved["_fixed_grid_pair"](*args)
        except OverflowError:
            counts["fell_back"] += 1
            raise
        counts["decided" if pair is not None else "fell_back"] += 1
        return pair

    statuses = collections.Counter()
    accurate = sweeps = solves = 0
    iteration.eval_with_derivative = counted_eval
    iteration._first_collision = counted_check
    rootsystem._scan_pairs = counted_scan
    iteration._row_sums = counted_row_sums
    iteration._row = counted_row
    iteration._reduce_row = counted_reduce_row
    polynomial._horner_pair = counted_horner
    polynomial._exact_pair = counted_exact("_exact_pair")
    polynomial._exact_real_pair = counted_exact("_exact_real_pair")
    polynomial._fixed_grid_pair = counted_fixed_grid
    try:
        for problem, report in trace_digest.solve_pool(workload, seed, count):
            solves += 1
            statuses[report.status.value] += 1
            accurate += problem.accurate(report.final)
            sweeps += report.iterations_used
    finally:
        for name, function in kernel.items():
            setattr(iteration, name, function)
        for name, function in saved.items():
            setattr(polynomial, name, function)
        rootsystem._scan_pairs = scan_pairs
    return [
        f"pool: {workload} seed {seed} count {count}",
        f"solves: {solves}",
        "statuses: " + ", ".join(f"{k} {v}" for k, v in sorted(statuses.items())),
        f"accurate: {accurate}",
        f"sweeps: {sweeps}",
        f"evaluation calls: {counts['eval']}",
        f"horner passes: {counts['horner']}",
        f"exact complex passes: {counts['_exact_pair']}",
        f"exact real passes: {counts['_exact_real_pair']}",
        f"fixed-grid passes decided: {counts['decided']}",
        f"fixed-grid passes fell back: {counts['fell_back']}",
        f"fixed-grid fall-backs with an exactly zero part: {counts['fell_back_zero']} "
        f"(other fall-backs: {counts['fell_back_other']})",
        f"passes with z' != z: {counts['moved']}",
        "fixed-grid passes by g: "
        + (", ".join(f"{g}: {v}" for g, v in sorted(steps.items())) or "none"),
        f"collision scans: {counts['checks']} "
        f"(full scans after the screen: {counts['scans']})",
        f"deflation rows: {counts['rows']} "
        f"(rows re-run on the reference path: {counts['reference_rows']})",
        f"serial table rows reduced: {counts['table_rows']}",
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(trace_digest.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=None,
                        help="problems to generate (default: the benchmark's pool size)")
    args = parser.parse_args()
    count = POOL_SIZE[args.workload] if args.count is None else args.count
    print("\n".join(pool_ledger(args.workload, args.seed, count)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
