"""No library module imports a name it never uses, and no private
module-level name goes unused.

A standard-library stand-in for a linter's unused-import rule: each module
under ``src/multiroots`` except ``__init__.py`` (whose imports are the
package's re-exports) is parsed, and every name bound by an import must
appear as a name somewhere in the module.  A dead-code rule rides along:
every ``_``-private function, class or constant defined at module level
under ``src/multiroots`` must be referred to, by name or as an attribute,
somewhere there.
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


def unreferenced_privates(sources):
    """Sorted ``_``-private module-level names that ``sources`` define and
    none of them refers to."""
    defined, used = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(n for n in defined - used
                  if n.startswith("_") and not n.startswith("__"))


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


def test_check_sees_an_unreferenced_private():
    assert unreferenced_privates([
        "_A = 1\n_B: int = 2\n_C = 3\n__all__ = []\n"
        "def _f():\n    return _A\n"
        "class _K:\n    pass\n"
        "def public():\n    pass\n",
        "import m\nm._K\n",
    ]) == ["_B", "_C", "_f"]


def test_no_unreferenced_privates():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_privates(sources) == []
