"""tools/code_lines.py counts code lines, leaving out docstrings,
comments and blank lines."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """Function docstring."""
    #: a comment before a statement
    return (x +
            1)


class C:
    \'\'\'Class docstring.\'\'\'

    y = """a string that is no docstring
    spans two lines"""
'''


def test_counts_code_lines_of_a_fixture_module(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    # import, def, the two-line return, class and the two-line assignment
    assert proc.stdout.split() == ["fixture.py", "7", "total", "7"]
