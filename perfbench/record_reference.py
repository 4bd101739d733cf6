"""Record reference.json, the numbers checks.py compares outputs against.

    python3 perfbench/record_reference.py

Runs one pass of every workload from this checkout's src/ and stores, for
each command line, the numbers checks.extract picks out of its output.
Seeded commands and the harmonic eig1d are checked against closed forms
and independent solves instead, so nothing is stored for them. Run this
at the commit whose numbers are to be the reference, not on a commit
under test.
"""

import json
import shutil
import time

import checks
import run
import workloads


def main():
    reference = {}
    outdir = run.WORK / "record"
    shutil.rmtree(outdir, ignore_errors=True)
    try:
        for workload in workloads.NAMES:
            commands = workloads.commands(workload, 0)
            result = run.run_child(run.with_out(commands, outdir / workload), False, outdir / workload,
                                   time.monotonic() + 600.0)
            for command, rec in zip(commands, result["commands"]):
                if rec["status"] != 0 or "--seed" in command:
                    continue
                prefix = rec["argv"][-1]
                with open(prefix + ".json") as fh:
                    summary = json.load(fh)["summary"]
                _, csv_rows = checks.read_csv(prefix + ".csv")
                name = checks.label(command)
                values = checks.extract(name, summary, csv_rows)
                if values:
                    reference[name] = values
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
