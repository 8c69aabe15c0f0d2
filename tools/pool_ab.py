"""Time one benchmark pool in process with two trees, in alternating order.

    python3 tools/pool_ab.py PARENT_TREE CHANGE_TREE --workload wide_quadratic \\
        --seed 1501 --rounds 15

Each tree's ``src/multiroots`` is copied into a temporary directory under a
package name of its own (``multiroots_a``, ``multiroots_b``); every import
inside the package is relative, so both copies load side by side in one
process.  The pool is the one ``bench/worker.py`` times for that workload
and seed (``--count`` takes a smaller pool from the same generator), built
once per tree by that tree's own classes, as ``tools/trace_digest.py``
builds it.  Each round solves the whole pool with each tree, A first in
even rounds and B first in odd ones, and times each solve of the pool with
``time.process_time``.  Prints each tree's median, B's median against A's
and the number of rounds in which B was faster.  Standard library only;
the library need not be importable.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import trace_digest  # first: it puts bench/ on sys.path for worker
from worker import POOL_SIZE


def load_copy(tree: str, name: str, directory: str):
    """Import ``tree``'s ``src/multiroots``, copied into ``directory`` (on
    ``sys.path``) as the package ``name``."""
    shutil.copytree(Path(tree) / "src" / "multiroots", Path(directory) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def pool_ab(trees: tuple[str, str], workload: str, seed: int, count: int,
            rounds: int) -> list[list[float]]:
    """The process times of ``rounds`` solves of the pool, per tree."""
    times: list[list[float]] = [[], []]
    with tempfile.TemporaryDirectory() as directory:
        sys.path.insert(0, directory)
        libs = [load_copy(tree, f"multiroots_{side}", directory)
                for side, tree in zip("ab", trees)]
        pools = [trace_digest.pool_arguments(workload, seed, count, lib) for lib in libs]
        for r in range(rounds):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                solve = libs[side].solve
                start = time.process_time()
                for _, (poly, mults, initial, config, simple) in pools[side]:
                    solve(poly, mults, initial, config, use_simple_step=simple)
                times[side].append(time.process_time() - start)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--workload", required=True, choices=sorted(trace_digest.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--count", type=int, default=None,
                        help="problems to generate (default: the benchmark's pool size)")
    args = parser.parse_args()
    count = POOL_SIZE[args.workload] if args.count is None else args.count
    a, b = pool_ab((args.tree_a, args.tree_b), args.workload, args.seed, count, args.rounds)
    median_a, median_b = statistics.median(a), statistics.median(b)
    print(f"pool: {args.workload} seed {args.seed} count {count}, {args.rounds} rounds")
    print(f"A: median {median_a:.4f} s  {args.tree_a}")
    print(f"B: median {median_b:.4f} s  {args.tree_b}")
    print(f"B against A: {median_b / median_a - 1:+.1%}")
    print(f"B faster in {sum(tb < ta for ta, tb in zip(a, b))} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
