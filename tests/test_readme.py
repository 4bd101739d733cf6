"""The README's Python API example and its command-line examples run as written."""

import re
import shlex
from pathlib import Path

from specgap.cli import COERCE, COMMANDS, INT_RANGE, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_examples_exit_zero(tmp_path):
    # each `specgap ...` line of the Examples block, with its --out moved
    # under a temporary directory
    block = re.search(r"Examples:\n\n```sh\n(.*?)```", README.read_text(), flags=re.DOTALL)
    lines = [line for line in block.group(1).splitlines() if line.startswith("specgap ")]
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        out = argv.index("--out") + 1
        argv[out] = str(tmp_path / Path(argv[out]).name)
        assert main(argv) == 0, line


def test_readme_input_table_matches_the_cli():
    # one row per config key, naming the commands that take it; an integer
    # row's bounds are INT_RANGE's, written lo <= key <= hi with open sides left out
    table = re.search(
        r"\| key \| accepted values \| commands \|\n\|---\|---\|---\|\n((?:\|.*\|\n)+)",
        README.read_text(),
    ).group(1)
    takers, bounds = {}, {}
    for line in table.splitlines():
        keys, accepted, commands = (cell.strip() for cell in line.strip("|").split("|"))
        for key in re.findall(r"`(\w+)`", keys):
            assert key not in takers
            takers[key] = set(re.findall(r"`(\w+)`", commands))
            if accepted.startswith("integer"):
                found = re.match(rf"integer, `(?:([\d,]+) <= )?{key}(?: <= ([\d,]+))?`", accepted)
                bounds[key] = tuple(b and int(b.replace(",", "")) for b in found.groups())
    assert takers == {key: {c for c in COMMANDS if key in COMMANDS[c].defaults} for key in COERCE}
    assert bounds == INT_RANGE
