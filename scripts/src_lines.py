#!/usr/bin/env python3
"""Count the lines of each module of `src/formloc`.

For every file it prints the physical lines and the code lines: the lines
that hold a token other than a comment, a docstring or a line break, so
blank lines, comments and docstrings are not counted.  The last row holds
the totals.

    python3 scripts/src_lines.py [DIR]

DIR defaults to this checkout's `src/formloc`.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(source: str) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines that hold a code token outside docstrings."""
    docs = docstring_lines(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED and tok.start[0] not in docs:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    src = Path(argv[0]) if argv else ROOT / "src" / "formloc"
    rows = []
    for path in sorted(src.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, len(source.splitlines()), code_lines(source)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'file':<{width}}  {'lines':>6}  {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
