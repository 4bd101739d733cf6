"""The README's Python API example and its command-line examples run as written."""

import re
import shlex
from pathlib import Path

from specgap.cli import MAX_SIZE, main

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


def test_readme_caps_table_lists_max_size():
    # the table of size caps names every key of MAX_SIZE with its maximum, and nothing else
    table = re.search(
        r"\| key \| commands \| maximum \|\n\|---\|---\|---\|\n((?:\|.*\|\n)+)", README.read_text()
    ).group(1)
    rows = re.findall(r"^\| `(\w+)` \| [^|]+ \| ([\d,]+) \|$", table, flags=re.MULTILINE)
    assert len(rows) == table.count("\n")
    assert {key: int(most.replace(",", "")) for key, most in rows} == MAX_SIZE
