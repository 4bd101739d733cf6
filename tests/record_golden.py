"""Record tests/golden.json, the outputs that tests/test_golden.py holds fixed.

    python tests/record_golden.py

runs every command line of LINES in-process through specgap.cli, as
test_golden does, and rewrites golden.json. Per line it keeps the exit
code and, where the command wrote its files, the JSON payload (the
`output` path aside), the CSV header, the CSV row count and, for a CSV of
at most CSV_MAX_ROWS rows, every CSV value. A change that moves a number
on purpose re-records the file; the diff of golden.json is then the list
of moves, and CHANGES.md says why each one moved.
"""

import json
import sys
import tempfile
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
sys.path.insert(0, str(GOLDEN_PATH.parents[1] / "src"))

from specgap import cli  # noqa: E402

CSV_MAX_ROWS = 1000

HARMONIC = ["--set", "kind=harmonic", "--set", "interval=-12,12", "--set", "n=100000"]
CONE64 = ["--set", "kind=coneModel", "--set", "params=64", "--set", "interval=0,64", "--set", "n=65536"]
FLAT_BOTTOM = "params=0,1e6,0.2499,1e6,0.25,0,0.75,0,0.7501,1e6,1,1e6"

# the 23 comparison command lines that CHANGES.md lists: every command at its
# defaults, the benchmark workloads' lines, and the 2D tol and spacing edges
LINES = [
    ["bound"],
    ["eig1d"],
    ["verifyThm1"],
    ["rearrangeCheck", "--seed", "3"],
    ["rearrangeCheck", "--seed", "1"],
    ["constants"],
    ["constants", "--set", "budget=200000", "--seed", "1"],
    ["constants", "--set", "alpha=0.5", "--set", "beta=0.25", "--set", "gamma=2"],
    ["bound", *HARMONIC],
    ["eig1d", *HARMONIC],
    ["bound", *CONE64],
    ["eig1d", *CONE64],
    ["domainSweep"],
    ["domainSweep", "--set", "resolution=1024", "--set", "D=16,64"],
    ["vdberg"],
    ["vdberg", "--set", "D=8,16"],
    ["vdberg", "--set", "D=8", "--set", "spacing=0.0625"],
    ["gjCompare"],
    ["gjCompare", "--set", "D=16", "--set", "spacing=0.03125"],
    ["bound", "--set", "kind=piecewiseLinear", "--set", FLAT_BOTTOM, "--set", "n=1000"],
    ["verifyThm1", "--set", "names=squareWell,harmonic"],
    ["vdberg", "--set", "tol=1e-13", "--set", "D=8"],
    ["gjCompare", "--set", "tol=1e-9", "--set", "D=16"],
]


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def outputs(argv, prefix):
    """What the command line argv leaves at <prefix>.json and .csv, with its exit code."""
    record = {"exit": cli.main([*argv, "--out", str(prefix)])}
    try:
        with open(f"{prefix}.json") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        return record
    del payload["output"]
    with open(f"{prefix}.csv") as fh:
        header, *lines = fh.read().splitlines()
    record.update(payload=payload, header=header, rows=len(lines))
    if len(lines) <= CSV_MAX_ROWS:
        record["csv"] = [[_cell(v) for v in line.split(",")] for line in lines]
    return record


def record():
    """Every line's outputs, keyed by the line."""
    with tempfile.TemporaryDirectory() as directory:
        return {" ".join(argv): outputs(argv, Path(directory) / str(i)) for i, argv in enumerate(LINES)}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1) + "\n")
