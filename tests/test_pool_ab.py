"""tools/pool_ab.py: one pool timed in process with two trees."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "pool_ab.py"


def test_prints_medians_change_and_wins():
    # the repository against itself
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT),
                           "--workload", "wide_quadratic", "--seed", "1501",
                           "--count", "3", "--rounds", "2"],
                          capture_output=True, text=True, timeout=120, cwd=ROOT / "tools")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "pool: wide_quadratic seed 1501 count 3, 2 rounds"
    assert re.fullmatch(rf"A: median \d+\.\d{{4}} s  {re.escape(str(ROOT))}", lines[1])
    assert re.fullmatch(rf"B: median \d+\.\d{{4}} s  {re.escape(str(ROOT))}", lines[2])
    assert re.fullmatch(r"B against A: [+-]\d+\.\d%", lines[3])
    assert re.fullmatch(r"B faster in [012] of 2 rounds", lines[4])
    assert len(lines) == 5


def test_imports_only_the_standard_library_and_the_benchmark():
    source = TOOL.read_text()
    imported = set(re.findall(r"^(?:from|import) (\w+)", source, re.M))
    assert imported <= {"__future__", "argparse", "importlib", "shutil", "statistics",
                        "sys", "tempfile", "time", "pathlib", "trace_digest", "worker"}
