"""tools/pool_ledger.py: whole-pool counts of a benchmark workload."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "pool_ledger.py"

#: The ledgers of the first 7 problems of the seed-1501 ring pools (15
#: solves for `wide_quadratic`), pools whose whole digests
#: `tests/test_trace_digest.py` pins: every count of a path taken by the
#: Horner passes, fall-backs and their causes included, and of the paths
#: taken by the collision screen and the deflation rows.
RING_1501_7 = {
    "wide_total": """\
pool: wide_total seed 1501 count 7
solves: 7
statuses: Converged 7
accurate: 7
sweeps: 26
evaluation calls: 1530
horner passes: 735
exact complex passes: 0
exact real passes: 21
fixed-grid passes decided: 714
fixed-grid passes fell back: 5
fixed-grid fall-backs with an exactly zero part: 0 (other fall-backs: 5)
passes with z' != z: 2
fixed-grid passes by g: 7: 71, 8: 73, 9: 86, 10: 104, 11: 117, 12: 127, 13: 141
collision scans: 33 (screen hits, each running the full scan: 0)
deflation rows: 660 (rows re-run on the reference path: 0)
serial table rows reduced: 0
""",
    "wide_quadratic": """\
pool: wide_quadratic seed 1501 count 7
solves: 15
statuses: Converged 15
accurate: 15
sweeps: 45
evaluation calls: 1890
horner passes: 721
exact complex passes: 0
exact real passes: 647
fixed-grid passes decided: 74
fixed-grid passes fell back: 10
fixed-grid fall-backs with an exactly zero part: 0 (other fall-backs: 10)
passes with z' != z: 0
fixed-grid passes by g: 4: 32, 6: 52
collision scans: 474 (screen hits, each running the full scan: 0)
deflation rows: 180 (rows re-run on the reference path: 0)
serial table rows reduced: 6571
""",
}


def run_tool(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(TOOL), *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", sorted(RING_1501_7))
def test_ring_pool_ledger(workload):
    proc = run_tool("--workload", workload, "--seed", "1501", "--count", "7")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == RING_1501_7[workload]


#: The fixed-grid passes of the whole seed-1501 ring pools: those that
#: decide and those that fall back to the exact pass.
RING_1501_FIXED_GRID = {"wide_total": (8439, 99), "wide_quadratic": (699, 43)}


@pytest.mark.parametrize("workload", sorted(RING_1501_FIXED_GRID))
def test_whole_ring_pool_fixed_grid_passes(workload):
    proc = run_tool("--workload", workload, "--seed", "1501")
    assert proc.returncode == 0, proc.stderr
    counts = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    decided, fell_back = RING_1501_FIXED_GRID[workload]
    assert counts["fixed-grid passes decided"] == str(decided)
    assert counts["fixed-grid passes fell back"] == str(fell_back)


def test_small_pool_counts_add_up():
    # the demo and 20 Gaussian-integer problems, of low degree: exact
    # passes only, made at memo misses; each pass takes one path
    proc = run_tool("--workload", "small", "--seed", "1501", "--count", "20")
    assert proc.returncode == 0, proc.stderr
    counts = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    assert counts["solves"] == "21"
    passes = int(counts["horner passes"])
    assert 0 < passes < int(counts["evaluation calls"])
    assert passes == (int(counts["exact complex passes"]) + int(counts["exact real passes"])
                      + int(counts["fixed-grid passes decided"]))
    assert counts["fixed-grid passes fell back"] == "0"


#: A pool of one solve, crafted so that every count the pinned pools read 0
#: runs once: a row whose power overflows, a fixed-grid pass at an exact
#: root of the stored polynomial (so A is 0 and the interval cannot round),
#: and a solve whose two starts are frozen 2e-13 apart (so the final
#: check's screen finds the pair and the full scan reports the collision).
CRAFTED_POOL = """
import sys, types
sys.path.insert(0, sys.argv[1])
import pool_ledger, trace_digest
from multiroots import MonicPolynomial, NonFiniteError, eval_with_derivative, solve
from multiroots.iteration import q_product

def crafted_pool(workload, seed, count):
    try:
        q_product((0.0, 1e8), (1, 40), 0)
    except NonFiniteError:
        pass
    # (x^2 - 2^-29 x + 2^-59)(x^28 + 1), zero at 2^-30 (1 + i); g = 1
    c = [0.0] * 30
    c[0], c[1], c[27], c[28], c[29] = -2.0 ** -29, 2.0 ** -59, 1.0, -2.0 ** -29, 2.0 ** -59
    assert eval_with_derivative(MonicPolynomial(c), complex(2 ** -30, 2 ** -30))[0] == 0
    report = solve(MonicPolynomial((0.0, 0.0)), (1, 1), (1e-13, -1e-13))
    yield types.SimpleNamespace(accurate=lambda final: False), report

trace_digest.solve_pool = crafted_pool
print("\\n".join(pool_ledger.pool_ledger("crafted", 0, 1)))
"""


def test_ledger_counts_each_path_it_names():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CRAFTED_POOL, str(TOOL.parent)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    assert counts["statuses"] == "Collision 1"
    assert counts["fixed-grid passes fell back"] == "1"
    assert counts["fixed-grid fall-backs with an exactly zero part"] == \
        "1 (other fall-backs: 0)"
    # q_product's check counts too; only the final check finds a pair
    assert counts["collision scans"] == "2 (screen hits, each running the full scan: 1)"
    assert counts["deflation rows"] == "1 (rows re-run on the reference path: 1)"


def test_imports_only_the_standard_library_and_the_benchmark():
    source = TOOL.read_text()
    imported = set(re.findall(r"^(?:from|import) (\w+)", source, re.M))
    assert imported <= {"__future__", "argparse", "collections", "math", "sys",
                        "trace_digest", "worker", "multiroots"}
