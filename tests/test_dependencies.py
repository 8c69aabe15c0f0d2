"""The library and its CLI run on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def loaded_after_import(condition):
    """Sorted names of the modules matching ``condition`` (an expression in
    ``m``) that a fresh interpreter holds after importing the package and
    its CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, multiroots, multiroots.cli; "
            f"print(sorted(m for m in sys.modules if {condition}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_core_imports_no_numpy():
    assert loaded_after_import("m.split('.')[0] == 'numpy'") == "[]"


def test_import_path_skips_unused_machinery():
    # Every CLI process pays for what the package imports.  None of these
    # is needed to build the value classes or to run a command;
    # `estimate_order` imports `statistics` when it is called.
    heavy = ("dataclasses", "inspect", "statistics", "fractions", "decimal",
             "numbers")
    assert loaded_after_import(f"m in {heavy!r}") == "[]"
