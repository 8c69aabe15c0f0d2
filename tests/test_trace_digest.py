"""tools/trace_digest.py: one digest over the solves of a benchmark pool."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "trace_digest.py"

#: The digest of the first 20 problems of the seed-1501 `small` pool (the
#: demo first).  It pins every status, iteration count and trace bit.
SMALL_1501_20 = "50f55e8f1239f99d2008e5168eea65f00c1e8853f2a39ef03a1251cea731ffd0"


#: The digests of the first 7 problems of the seed-1501 ring pools (15
#: solves for `wide_quadratic`), polynomials in x^g with g from 4 to 13 and
#: degree up to 78: they pin the fixed-grid pass at z^g' (803 passes) and
#: its fall-backs to the exact pass (15).
RING_1501_7 = {
    "wide_total": "64260758795287969b8d53d0c438568e07858c1156ff9b69e6567a235fabe25d",
    "wide_quadratic": "5c9b7826dc78ff9237b97df3af1b889064483fc48be3e63e9ae10249389a6f48",
}


def run_tool(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(TOOL), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_small_pool_digest():
    proc = run_tool("--workload", "small", "--seed", "1501", "--count", "20")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{SMALL_1501_20}  small seed 1501 count 20\n"


@pytest.mark.parametrize("workload", sorted(RING_1501_7))
def test_ring_pool_digest(workload):
    proc = run_tool("--workload", workload, "--seed", "1501", "--count", "7")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{RING_1501_7[workload]}  {workload} seed 1501 count 7\n"


def test_another_seed_gives_another_digest():
    proc = run_tool("--workload", "small", "--seed", "1502", "--count", "20")
    assert proc.returncode == 0, proc.stderr
    digest = proc.stdout.split()[0]
    assert re.fullmatch("[0-9a-f]{64}", digest) and digest != SMALL_1501_20


def test_imports_only_the_standard_library_and_the_benchmark():
    source = TOOL.read_text()
    imported = set(re.findall(r"^(?:from|import) (\w+)", source, re.M))
    assert imported <= {"__future__", "argparse", "hashlib", "random", "struct", "sys",
                        "pathlib", "workloads", "worker", "multiroots"}
