"""The package's public surface: `multiroots.__all__`, the names the README
and demos import from it, and the README's Python examples."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import multiroots

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

PUBLIC = {
    "CollisionError",
    "DegenerateSystemError",
    "InsufficientDataError",
    "MonicPolynomial",
    "MultirootsError",
    "NonFiniteError",
    "ResidualZeroError",
    "RootSystem",
    "SingularDenominatorError",
    "SolveConfig",
    "SolveReport",
    "SolveStatus",
    "TheoremCheckResult",
    "TraceRecord",
    "UpdateMode",
    "ek_step",
    "error_bound",
    "estimate_order",
    "eval_with_derivative",
    "gek_step",
    "poly_from_roots",
    "q_log_derivative",
    "s_value",
    "separation",
    "solve",
    "theorem_check",
}


def readme_python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def names_imported_from_package(source):
    """Names of every ``from multiroots import ...`` line in ``source``."""
    return {alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "multiroots"
            for alias in node.names}


def test_all_is_the_public_surface():
    assert len(multiroots.__all__) == len(PUBLIC) == 26
    assert set(multiroots.__all__) == PUBLIC
    for name in multiroots.__all__:
        assert getattr(multiroots, name) is not None


def test_documented_imports_are_public():
    sources = {"README.md": "\n".join(readme_python_blocks())}
    sources.update((p.name, p.read_text()) for p in DEMOS)
    for where, source in sources.items():
        names = names_imported_from_package(source)
        assert names, f"{where} imports nothing from multiroots"
        assert names <= PUBLIC, f"{where}: {sorted(names - PUBLIC)}"


def test_readme_examples_run_in_one_process():
    blocks = readme_python_blocks()
    assert len(blocks) >= 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "\n".join(blocks)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("Converged 3\n")
