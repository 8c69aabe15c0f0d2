"""Print one SHA-256 over the solves of a benchmark workload's pool.

    python3 tools/trace_digest.py --workload small --seed 1501
    python3 tools/trace_digest.py --workload wide_total --seed 1501 --count 20

The pool is the one ``bench/worker.py`` times for that workload and seed,
built by ``bench/workloads.py`` (imported, never changed); ``--count``
takes a smaller pool from the same generator.  Every problem is solved as
the worker solves it, and the digest covers, in pool order, each report's
status and iteration count and every record of its trace: k, the bits of
every value, residual and step, and the frozen flags.  Two trees that
print the same digest for a pool give bitwise the same results on it.
Standard library only; run from anywhere, with the library importable
(``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import hashlib
import random
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads as wl  # noqa: E402
from worker import POOL_SIZE  # noqa: E402

GENERATORS = {
    "small": wl.small_problems,
    "wide_total": wl.wide_total_problems,
    "wide_quadratic": wl.wide_quadratic_problems,
}


def _complex_bits(values) -> bytes:
    return b"".join(struct.pack("<dd", z.real, z.imag) for z in values)


def report_bytes(report) -> bytes:
    """The status, iteration count and trace of a `SolveReport`, as bytes."""
    parts = [report.status.value.encode(), struct.pack("<q", report.iterations_used)]
    for record in report.trace:
        parts.append(struct.pack("<q", record.k))
        parts.append(_complex_bits(record.values))
        parts.append(struct.pack(f"<{len(record.residuals)}d", *record.residuals))
        if record.steps is None:
            parts.append(b"-")
        else:
            parts.append(struct.pack(f"<{len(record.steps)}d", *record.steps))
        parts.append(bytes(record.frozen))
    return b"".join(parts)


def pool_arguments(workload: str, seed: int, count: int, lib) -> list[tuple]:
    """(problem, arguments) for each problem of the pool, in order: the
    positional arguments and ``use_simple_step`` with which
    ``bench/worker.py`` solves it, built by the package ``lib`` (the
    library, or a copy of it under another name)."""
    pool = []
    for p in GENERATORS[workload](random.Random(seed), count):
        if p.coefficients is None:
            poly = lib.poly_from_roots(lib.RootSystem(p.roots, p.multiplicities))
        else:
            poly = lib.MonicPolynomial(p.coefficients)
        config = lib.SolveConfig(update_mode=lib.UpdateMode(p.mode), **p.config)
        pool.append((p, (poly, p.multiplicities, p.initial, config, p.simple_step)))
    return pool


def solve_pool(workload: str, seed: int, count: int):
    """Yield (problem, report) for each problem of the pool, in order,
    solved by ``multiroots`` as ``bench/worker.py`` solves it."""
    import multiroots  # here, so that a copy of the library builds pools without it

    for p, (poly, mults, initial, config, simple) in pool_arguments(
            workload, seed, count, multiroots):
        yield p, multiroots.solve(poly, mults, initial, config, use_simple_step=simple)


def pool_digest(workload: str, seed: int, count: int) -> str:
    """The SHA-256 hex digest of every solve of the pool, in order."""
    digest = hashlib.sha256()
    for _, report in solve_pool(workload, seed, count):
        digest.update(report_bytes(report))
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=None,
                        help="problems to generate (default: the benchmark's pool size)")
    args = parser.parse_args()
    count = POOL_SIZE[args.workload] if args.count is None else args.count
    print(f"{pool_digest(args.workload, args.seed, count)}  "
          f"{args.workload} seed {args.seed} count {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
