"""The README's "Library" example runs and prints what its comments say,
its CLI sections name exactly the CLI's flags, and its Scenarios table
names exactly the presets."""

import argparse
import contextlib
import io
import re
from pathlib import Path

from formloc import cli

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


def test_readme_cli_sections_name_exactly_the_cli_flags():
    readme = (ROOT / "README.md").read_text()
    text = readme.split("## CLI\n", 1)[1].split("## Scenarios\n", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))
    flags, parsers = set(), [cli.build_parser()]
    for parser in parsers:  # the loop also walks each subparser it appends
        for action in parser._actions:
            flags.update(option for option in action.option_strings if option.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert "--trajectory" in flags and "--out" in flags
    assert documented == flags - {"--help", "--version"}


def test_readme_scenarios_table_names_exactly_the_presets():
    text = (ROOT / "README.md").read_text().split("## Scenarios\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `([\w-]+)` \|", text, re.M)
    assert sorted(names) == sorted(cli.SCENARIOS)  # and so EXPECTED_OUTCOME's keys (test_cli)
