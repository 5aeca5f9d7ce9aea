"""The README's "Library" example runs and prints what its comments say."""

import contextlib
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_prints_its_comments():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    # each commented print: its output, as the comment shows it
    comments = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(") and "#" in line]
    assert comments == ["converged", "~0.02", "converged", "~0.036 ~13.3"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 4 + 16  # the loop prints one line per seed
    for comment, printed in zip(comments, lines[:2] + lines[-2:]):
        shown = comment.split()
        got = printed.split()
        assert len(got) == len(shown), (comment, printed)
        for want, value in zip(shown, got):
            if want.startswith("~"):  # at the digits the comment shows
                digits = len(want.partition(".")[2])
                assert f"{float(value):.{digits}f}" == want[1:], (comment, printed)
            else:
                assert value == want, (comment, printed)
