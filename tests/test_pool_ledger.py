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
#: solves for `wide_quadratic`), the pools whose digests
#: `tests/test_trace_digest.py` pins: every count of a path taken by the
#: Horner passes, fall-backs included.
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
passes with z' != z: 2
fixed-grid passes by g: 7: 71, 8: 73, 9: 86, 10: 104, 11: 117, 12: 127, 13: 141
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
passes with z' != z: 0
fixed-grid passes by g: 4: 32, 6: 52
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


def test_imports_only_the_standard_library_and_the_benchmark():
    source = TOOL.read_text()
    imported = set(re.findall(r"^(?:from|import) (\w+)", source, re.M))
    assert imported <= {"__future__", "argparse", "collections", "math", "sys",
                        "trace_digest", "worker", "multiroots"}
