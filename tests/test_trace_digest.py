"""tools/trace_digest.py: one digest over the solves of a benchmark pool."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "trace_digest.py"

#: The digest of the whole seed-1501 `small` pool, 2,000 problems (the
#: demo first).  It pins every status, iteration count and trace bit.
SMALL_1501 = "9c9c58b1b8a1b57b55564e068474ea9c804fc19eb5d3a7c9a1316bc296dd44ac"


#: The digests and sizes of the whole seed-1501 ring pools (124 solves for
#: `wide_quadratic`), polynomials in x^g with g from 4 to 13 and degree up
#: to 78: they pin the fixed-grid pass at z^g (8,538 and 742 passes) and
#: its fall-backs to the exact pass (99 and 43).
RING_1501 = {
    "wide_total": ("1ba05837f6ddfd170768e76934e8a322aa4b789d7d0486c2d5e03372bf0d05a9", 84),
    "wide_quadratic": ("766cadd6a67cba2e4e69652289fec9c684efe4728f87c6c911b1c9503db72d9e", 60),
}


def run_tool(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(TOOL), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_small_pool_digest():
    proc = run_tool("--workload", "small", "--seed", "1501")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{SMALL_1501}  small seed 1501 count 2000\n"


@pytest.mark.parametrize("workload", sorted(RING_1501))
def test_ring_pool_digest(workload):
    proc = run_tool("--workload", workload, "--seed", "1501")
    assert proc.returncode == 0, proc.stderr
    digest, count = RING_1501[workload]
    assert proc.stdout == f"{digest}  {workload} seed 1501 count {count}\n"


def test_another_seed_gives_another_digest():
    proc = run_tool("--workload", "small", "--seed", "1502")
    assert proc.returncode == 0, proc.stderr
    digest = proc.stdout.split()[0]
    assert re.fullmatch("[0-9a-f]{64}", digest) and digest != SMALL_1501


def test_imports_only_the_standard_library_and_the_benchmark():
    source = TOOL.read_text()
    imported = set(re.findall(r"^(?:from|import) (\w+)", source, re.M))
    assert imported <= {"__future__", "argparse", "hashlib", "random", "struct", "sys",
                        "pathlib", "workloads", "worker", "multiroots"}
