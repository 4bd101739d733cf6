#!/usr/bin/env python3
"""The specgap benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of workloads.NAMES. The program is run from the src/ tree of
the checkout this file sits in; nothing needs installing.

Each pass of a workload runs in a fresh interpreter (child.py) that
imports specgap.cli and then runs the workload's commands in order
through specgap.cli.main, so every pass pays start-up as a user's
`specgap ...` call does. After each pass the outputs are checked
(checks.py), and each command's CSV must be byte-identical to every other
run of that command line at the same src/ contents; the CSV digests are
kept in .bench_work/ across runs.

--trace 0 repeats passes until S seconds have gone by (always at least
one), adds set-up probes (interpreters that only import specgap.cli)
until there are SETUP_SAMPLES set-up samples, and reports the end-to-end
metrics:
  setup_s      interpreter start until `import specgap.cli` returns,
               median over the samples
  wall_s       end of the import until the last command returns, median
               over the passes
  peak_rss_mb  largest resident set of any process of any pass, the 2D
               sweep's pool workers included
  ops_ok_frac  commands that exited 0 with correct output, over commands
               attempted (ops_failed_frac, printed with its base, is one
               minus this)

--trace 1 repeats pairs of passes until S seconds have gone by: an
untraced pass, then a traced one (tracer.py) in which the process pool
runs in-process. It reports the per-layer metrics listed in PER_LAYER
(medians over the traced passes) plus the import-time split of
`python -X importtime`.

Human-readable lines come first; the last line of standard output is one
JSON object with keys correct, attempted, failed and metrics. `correct`
is false when a command exits 0 but its output fails a check or repeats
with other bytes; a command that exits non-zero is counted in `failed`.
The exit status is non-zero, with no JSON line, when the benchmark cannot
run at all (no src/specgap in the checkout, a pass that crashes or
overruns).
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 175.0  # every child is started and stopped within this many seconds

COMMANDS = ("bound", "constants", "domainSweep", "eig1d", "gjCompare", "rearrangeCheck", "vdberg", "verifyThm1")

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("ops_ok_frac", "frac")]

# name, unit, traced function, the field of its totals ("self_s", "calls", ...)
LAYER_SUMS = [
    ("eigensolve2d.solve.calls", "count", "eigensolve2d.smallest_eigenpair_2d", "calls"),
    ("eigensolve2d.solve.self_s", "s", "eigensolve2d.smallest_eigenpair_2d", "self_s"),
    ("eigensolve2d.solve.cells", "count", "eigensolve2d.smallest_eigenpair_2d", "size"),
    ("eigensolve2d.rasterize.self_s", "s", "eigensolve2d.rasterize", "self_s"),
    ("eigensolve1d.solve.calls", "count", "eigensolve1d.smallest_eigenpair", "calls"),
    ("eigensolve1d.solve.self_s", "s", "eigensolve1d.smallest_eigenpair", "self_s"),
    ("eigensolve1d.solve.nodes", "count", "eigensolve1d.smallest_eigenpair", "size"),
    ("eigensolve1d.solve.failed", "count", "eigensolve1d.smallest_eigenpair", "raised"),
    ("sublevel.width.calls", "count", "sublevel.width", "calls"),
    ("sublevel.width.self_s", "s", "sublevel.width", "self_s"),
    ("sublevel.minimize.self_s", "s", "sublevel.minimize_functional", "self_s"),
    ("constants.search.self_s", "s", "constants.search", "self_s"),
    ("rearrange.verify_chain.self_s", "s", "rearrange.verify_chain", "self_s"),
    ("potential.sample.self_s", "s", "potential.sample", "self_s"),
    ("potential.sample.nodes", "count", "potential.sample", "size"),
    ("pipeline.vdberg_sweep.s", "s", "pipeline.vdberg_sweep", "total_s"),
]
# name, unit, module prefix, field: summed over every traced function of the module
MODULE_SUMS = [
    *((f"{m}.self_s", "s", f"{m}.", "self_s") for m in (
        "eigensolve2d", "eigensolve1d", "sublevel", "constants", "rearrange", "potential", "convexdomain", "pipeline",
    )),
    ("convexdomain.calls", "count", "convexdomain.", "calls"),
    ("cli.self_s", "s", "cli.op.", "self_s"),
]
OTHER_LAYER = [
    ("constants.search.evals", "count"),
    ("pipeline.workers", "count"),
    ("cli.bytes_out", "bytes"),
    *((f"cli.op.{c}.s", "s") for c in COMMANDS),
    ("setup.import.numpy_s", "s"),
    ("setup.import.scipy_s", "s"),
    ("setup.import.specgap_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("src.lines", "lines"),
    ("machine.cores", "count"),
]
PER_LAYER = [(n, u) for n, u, _, _ in LAYER_SUMS + MODULE_SUMS] + OTHER_LAYER


class BenchError(Exception):
    pass


def child_env(extra):
    env = dict(os.environ)
    env.pop("SPECGAP_WORKERS", None)  # the CLI's default worker count unless `extra` sets it
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def spawn(argv, cwd, deadline, extra_env=None):
    """Run argv in its own process group and kill the whole group when it ends or overruns."""
    proc = subprocess.Popen(
        argv, cwd=cwd, env=child_env(extra_env or {}), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:3]} did not finish within the benchmark's deadline")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # leftover pool workers, if any
        except ProcessLookupError:
            pass
    return proc.returncode, out, err


def run_child(commands, trace, outdir, deadline, extra_env=None):
    """One interpreter: import specgap.cli, run `commands`; returns child.py's record plus setup_s and wall_s."""
    outdir.mkdir(parents=True)
    result_path = outdir / "result.json"
    start = time.monotonic()
    status, _, err = spawn(
        [sys.executable, str(HERE / "child.py"), str(result_path), str(int(trace)), json.dumps(commands)],
        outdir, deadline, extra_env,
    )
    if status != 0 or not result_path.exists():
        raise BenchError(f"pass exited with status {status}:\n{err[-4000:]}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["import_done"] - start
    result["wall_s"] = result["end"] - result["import_done"]
    return result


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Outcomes:
    """Exit codes, output checks and CSV byte-identity over every pass of a run."""

    def __init__(self):
        self.reference = json.loads(checks.REFERENCE_PATH.read_text())
        self.digest_path = WORK / f"csv-sha256-{src_digest()[:16]}.json"
        self.digests = json.loads(self.digest_path.read_text()) if self.digest_path.exists() else {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.workers = 0
        self.bytes_out = []

    def record(self, result):
        bytes_out = 0
        for rec in result["commands"]:
            argv = rec["argv"]
            cut = argv.index("--out")
            key, prefix = " ".join(argv[:cut]), argv[cut + 1]
            self.attempted += 1
            if rec["status"] != 0:
                self.failed += 1
                print(f"failed: {key}: exit {rec['status']}: {last_line(rec['stderr'])}", file=sys.stderr)
                continue
            problems = checks.check(argv[:cut], prefix, self.reference)
            if not problems:  # only outputs that passed their checks are digested
                csv = Path(prefix + ".csv").read_bytes()
                digest = hashlib.sha256(csv).hexdigest()
                if self.digests.setdefault(key, digest) != digest:
                    problems.append("CSV bytes differ from an earlier run of the same command line")
                bytes_out += len(csv) + Path(prefix + ".json").stat().st_size
                self.workers = json.loads(Path(prefix + ".json").read_text())["config"].get("workers", 0)
            if problems:
                self.failed += 1
                self.wrong += 1
                print(f"wrong output: {key}: " + "; ".join(problems), file=sys.stderr)
        self.bytes_out.append(bytes_out)

    def save(self):
        tmp = self.digest_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, indent=1, sort_keys=True))
        os.replace(tmp, self.digest_path)


def last_line(text):
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1] if lines else ""


def import_split(deadline):
    """Seconds spent importing numpy, scipy and specgap under `python -X importtime`.

    Each module's self time goes to the first of numpy, scipy or specgap
    found among itself and the modules whose import pulled it in; a stdlib
    module imported by scipy therefore counts as scipy's.
    """
    _, _, err = spawn([sys.executable, "-X", "importtime", "-c", "import specgap.cli"], WORK, deadline)
    totals = {"numpy": 0, "scipy": 0, "specgap": 0}
    stack = []  # (depth, package bucket or None); lines list children before their parent
    for line in reversed(err.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        depth = len(name) - len(name.lstrip())
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.strip().split(".")[0]
        bucket = package if package in totals else (stack[-1][1] if stack else None)
        stack.append((depth, bucket))
        if bucket:
            totals[bucket] += int(self_us)
    return {k: v * 1e-6 for k, v in totals.items()}


def with_out(commands, outdir):
    return [c + ["--out", str(outdir / f"{i}-{c[0]}")] for i, c in enumerate(commands)]


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    commands = workloads.commands(workload, seed)
    WORK.mkdir(exist_ok=True)
    rundir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    outcomes = Outcomes()
    # bytecode is compiled once per checkout, as an installed package has it; not timed
    compileall.compile_dir(SRC, quiet=2)
    try:
        splits = [import_split(deadline) for _ in range(IMPORTTIME_SAMPLES)] if trace else []
        passes, traced = [], []
        measure_start = time.monotonic()
        while not passes or time.monotonic() - measure_start < seconds:
            pass_start = time.monotonic()
            outdir = rundir / f"p{len(passes)}"
            # a trace run's untraced pass keeps the CLI defaults, so the pool's cost shows in it
            env = {} if trace else workloads.measured_env(workload)
            passes.append(run_child(with_out(commands, outdir), False, outdir, deadline, env))
            if not Path(passes[-1]["module"]).resolve().is_relative_to(SRC.resolve()):
                raise BenchError(f"specgap was imported from {passes[-1]['module']}, not from {SRC}")
            outcomes.record(passes[-1])
            if trace:
                outdir = rundir / f"t{len(traced)}"
                traced.append(run_child(with_out(commands, outdir), True, outdir, deadline))
                outcomes.record(traced[-1])
            if time.monotonic() + (time.monotonic() - pass_start) > deadline - 10.0:
                break
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES and not trace:
            setups.append(run_child([], False, rundir / f"s{len(setups)}", deadline)["setup_s"])
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    outcomes.save()

    if trace:
        metrics = layer_metrics(passes, traced, outcomes, splits)
        units = dict(PER_LAYER)
    else:
        ok = outcomes.attempted - outcomes.failed
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median([p["wall_s"] for p in passes]),
            "peak_rss_mb": max(p["rss_kb"] for p in passes) * 1024 / 1e6,
            "ops_ok_frac": ok / outcomes.attempted,
        }
        units = dict(END_TO_END)
        print(f"{workload} seed {seed}: {len(passes)} pass(es), {len(setups)} set-up samples")
        print("samples: wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes)
              + ", setup_s " + " ".join(f"{s:.3f}" for s in setups))
        print(f"ops_failed_frac {outcomes.failed}/{outcomes.attempted} = {outcomes.failed / outcomes.attempted:.4g}")
    print(
        f"machine: cores={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} vdberg_workers={outcomes.workers} src.lines={src_lines()}"
    )
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": outcomes.wrong == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def layer_metrics(passes, traced, outcomes, splits):
    per_pass = []
    for plain, run in zip(passes, traced):
        stats = run["trace"]["stats"]
        m = {}
        for name, _, function, field in LAYER_SUMS:
            m[name] = stats.get(function, {}).get(field, 0)
        for name, _, prefix, field in MODULE_SUMS:
            m[name] = sum(s[field] for f, s in stats.items() if f.startswith(prefix))
        m["constants.search.evals"] = sum(
            n for caller, callee, n in run["trace"]["edges"]
            if caller == "constants.search" and callee == "constants.is_feasible"
        )
        for c in COMMANDS:
            m[f"cli.op.{c}.s"] = sum(r["seconds"] for r in plain["commands"] if r["argv"][0] == c)
        # the tracing cost, over the commands that ran the same way in both passes
        same = [(p, t) for p, t in zip(plain["commands"], run["commands"]) if not t["inline_pool"]]
        untraced = sum(p["seconds"] for p, _ in same)
        m["trace.overhead_frac"] = sum(t["seconds"] for _, t in same) / untraced - 1.0 if untraced else 0.0
        per_pass.append(m)
    metrics = {name: statistics.median([m[name] for m in per_pass]) for name in per_pass[0]}
    metrics["pipeline.workers"] = outcomes.workers
    metrics["cli.bytes_out"] = statistics.median(outcomes.bytes_out)
    for package in ("numpy", "scipy", "specgap"):
        metrics[f"setup.import.{package}_s"] = statistics.median([s[package] for s in splits])
    metrics["src.lines"] = src_lines()
    metrics["machine.cores"] = os.cpu_count()
    return {name: metrics[name] for name, _ in PER_LAYER}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "specgap" / "cli.py").is_file():
        print(f"no specgap sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
