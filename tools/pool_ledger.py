"""Print whole-pool counts for a benchmark workload: statuses, sweeps,
evaluation calls and Horner passes by path.

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
- passes where z' != z (a part of z rounded to the grid 2^min(0, e-110));
- fixed-grid passes by g, the power with A(x) = P(x^g).

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

from multiroots import iteration, polynomial


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
    evaluate = iteration.eval_with_derivative

    def counted_eval(poly, z):
        counts["eval"] += 1
        return evaluate(poly, z)

    def counted_horner(scaled, x, y):
        counts["horner"] += 1
        counts["moved"] += _moved(x, y)
        return saved["_horner_pair"](scaled, x, y)

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
        iteration.eval_with_derivative = evaluate
        for name, function in saved.items():
            setattr(polynomial, name, function)
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
        f"passes with z' != z: {counts['moved']}",
        "fixed-grid passes by g: "
        + (", ".join(f"{g}: {v}" for g, v in sorted(steps.items())) or "none"),
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
