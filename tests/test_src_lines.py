"""`scripts/src_lines.py`, the line count every size report quotes."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("src_lines", ROOT / "scripts" / "src_lines.py")
src_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(src_lines)

# ten code lines: the import, the class line, `size`, the two def lines, both
# lines of `text`'s string (not a docstring), `return text` and both lines of
# the last return; docstrings, comments and blank lines do not count
SOURCE = '''\
"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class Thing:
    """Class docstring."""

    size = 1

    def method(self):
        """Method docstring,

        over three lines."""
        text = """a string
that is not a docstring"""
        return text


def function():
    """Function docstring."""
    # a comment inside
    return (os,
            2)
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    assert src_lines.code_lines(SOURCE) == 10


def test_total_row_is_the_column_sums(capsys):
    assert src_lines.main([str(ROOT / "src" / "formloc")]) == 0
    header, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["file", "lines", "code"]
    assert [name for name, _, _ in rows] == sorted(
        p.name for p in (ROOT / "src" / "formloc").glob("*.py"))
    assert total == ["total", str(sum(int(r[1]) for r in rows)), str(sum(int(r[2]) for r in rows))]
