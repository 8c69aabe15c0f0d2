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


def test_evaluations_replays_the_pools_calls():
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT),
                           "--workload", "wide_total", "--seed", "1501",
                           "--count", "2", "--rounds", "2", "--evaluations"],
                          capture_output=True, text=True, timeout=120, cwd=ROOT / "tools")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "pool: wide_total seed 1501 count 2, 2 rounds, evaluations only"
    assert re.fullmatch(r"B faster in [012] of 2 rounds", lines[4])
    assert len(lines) == 5


def test_replay_makes_the_recorded_calls_from_an_empty_memo():
    # the recorded sequence is the solver's own, memo hits included, and a
    # replay makes the same Horner passes as the solves did
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import pool_ab
    finally:
        sys.path.remove(str(ROOT / "tools"))
    import multiroots
    from multiroots import polynomial

    pool = pool_ab.trace_digest.pool_arguments("wide_quadratic", 1501, 2, multiroots)
    passes = []
    horner = polynomial._horner_pair
    polynomial._horner_pair = lambda *args: passes.append(args[1:]) or horner(*args)
    try:
        polynomial._last_scaled = polynomial._EMPTY_ENTRY
        coefficients, calls = pool_ab.record_evaluations(multiroots, pool)
        solved = passes[:]
        del passes[:]
        polys = [multiroots.MonicPolynomial(c) for c in coefficients]
        pool_ab.replay(multiroots, polys, calls)
    finally:
        polynomial._horner_pair = horner
    assert coefficients == [poly.low_coefficients for _, (poly, *_) in pool]
    assert passes == solved
    assert 0 < len(passes) < len(calls)


def test_imports_only_the_standard_library_and_the_benchmark():
    source = TOOL.read_text()
    imported = set(re.findall(r"^(?:from|import) (\w+)", source, re.M))
    assert imported <= {"__future__", "argparse", "importlib", "shutil", "statistics",
                        "sys", "tempfile", "time", "pathlib", "trace_digest", "worker"}
