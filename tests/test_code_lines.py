"""tools/code_lines.py, the code-line count every simplicity measure reads."""

import contextlib
import importlib.util
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# each line's count by hand: docstrings, comment-only and blank lines
# count 0; every line a statement spans counts 1, a trailing comment too
SOURCE = '''\
"""A module docstring
over two lines."""

import os


# a comment-only line
class A:
    """A class docstring."""

    def f(self, x):
        """A function docstring
        over two lines."""
        y = (x
             + 1
             + 2)  # a trailing comment
        return os.sep, y
'''
HAND_COUNT = 1 + 1 + 1 + 3 + 1


def test_counts_a_synthetic_source_by_hand():
    assert code_lines.code_lines(SOURCE) == HAND_COUNT


def test_total_is_the_sum_of_the_modules():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code_lines.main([str(ROOT / "src" / "ve2d")])
    rows = [line.split() for line in out.getvalue().splitlines()]
    *modules, (total, name) = rows
    assert name == "total"
    assert len(modules) == len(list((ROOT / "src" / "ve2d").glob("*.py")))
    assert int(total) == sum(int(count) for count, _ in modules)
