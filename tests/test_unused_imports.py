"""No library module imports a name it never uses.

A standard-library stand-in for a linter's unused-import rule: each module
under ``src/multiroots`` except ``__init__.py`` (whose imports are the
package's re-exports) is parsed, and every name bound by an import must
appear as a name somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "multiroots"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Sorted names that ``source`` imports and never refers to."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom math import pi, e\n"
                          "print(sys.argv, e)\n") == ["os", "pi"]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nos.path.join('a')\n") == []


def test_modules_exist():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
