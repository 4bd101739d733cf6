"""Command-line interface tests: config resolution, file outputs, exit codes."""

import ast
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import specgap
from specgap import pipeline
from specgap.cli import COMMANDS, INT_RANGE, _write_outputs, main, run
from specgap.constants import exact_optimum
from specgap.convexdomain import MAX_GRID_NODES


PI2 = math.pi**2


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which RFC 8259 does not allow."""

    def reject(name):
        raise ValueError(f"{name} is not valid JSON")

    return json.loads(text, parse_constant=reject)


def load(prefix):
    with open(str(prefix) + ".json") as fh:
        data = strict_json(fh.read())
    with open(str(prefix) + ".csv") as fh:
        lines = fh.read().splitlines()
    return data, lines


def read_bytes(prefix, ext):
    with open(str(prefix) + ext, "rb") as fh:
        return fh.read()


def _fmt(value) -> str:
    """The CSV cell of the earlier per-cell writer, kept as a test reference:
    the writer's one line format per file must give the same bytes."""
    return value if isinstance(value, str) else format(value, ".17g")


def reference_csv(header, rows):
    return "".join([header + "\n"] + [",".join(map(_fmt, row)) + "\n" for row in rows]).encode()


def record_rows(monkeypatch, name):
    """Wrap the command's runner so the test sees the rows it hands the writer.

    A runner that returns rows=None keeps doing so, so the summary-row
    adapter in `run` still runs; the recorded rows are then the header's
    columns of summary["rows"].
    """
    command = COMMANDS[name]
    recorded = []

    def runner(**arguments):
        summary, rows = command.runner(**arguments)
        if rows is None:
            columns = command.header.split(",")
            recorded.append([[r[c] for c in columns] for r in summary["rows"]])
        else:
            rows = list(rows)
            recorded.append(rows)
        return summary, rows

    monkeypatch.setitem(COMMANDS, name, command._replace(runner=runner))
    return recorded


def test_bound_default_outputs(tmp_path):
    prefix = tmp_path / "b"
    assert main(["bound", "--out", str(prefix)]) == 0
    data, lines = load(prefix)
    assert data["command"] == "bound"
    assert data["config"]["n"] == 1000
    assert data["config"]["kind"] == "squareWell"
    summary = data["summary"]
    assert summary["lower"] == pytest.approx(0.004, rel=3e-3)
    assert summary["upperSharp"] == pytest.approx(PI2, rel=3e-3)
    assert summary["fStar"] == pytest.approx(1.0, rel=3e-3)
    assert summary["isInterval"] is True
    assert lines[0] == "y,width,functional"
    assert len(lines) == 2


def test_eig1d_override_n(tmp_path):
    prefix = tmp_path / "e"
    assert main(["eig1d", "--out", str(prefix), "--set", "n=500"]) == 0
    data, lines = load(prefix)
    summary = data["summary"]
    assert summary["n"] == 500
    assert summary["lambda1"] == pytest.approx(PI2, rel=1e-4)
    assert summary["residual"] <= 1e-8
    assert summary["dx"] == pytest.approx(1.0 / 501.0, rel=1e-12)
    assert lines[0] == "x,f"
    assert len(lines) == 501


def test_eig1d_fine_harmonic_converges(tmp_path):
    # the residual target follows rounding in ||A|| ~ 4/dx^2 on fine grids
    prefix = tmp_path / "h"
    args = ["eig1d", "--out", str(prefix), "--set", "kind=harmonic"]
    args += ["--set", "interval=-12,12", "--set", "n=100000"]
    assert main(args) == 0
    data, lines = load(prefix)
    dx = data["summary"]["dx"]
    assert data["summary"]["lambda1"] == pytest.approx(1.0 - dx**2 / 16.0, rel=1e-6)
    assert len(lines) == 100001


def test_bound_csv_round_trips_at_fine_size(tmp_path, monkeypatch):
    # 17 significant digits give back every double; the benchmark finds the
    # yStar row by exact equality with the summary
    recorded = record_rows(monkeypatch, "bound")
    prefix = tmp_path / "fine"
    argv = ["bound", "--out", str(prefix)]
    argv += ["--set", "kind=harmonic", "--set", "interval=-12,12", "--set", "n=100000"]
    assert main(argv) == 0
    [rows] = recorded
    data, lines = load(prefix)
    cells = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert cells == rows
    s = data["summary"]
    [at] = [row for row in cells if row[0] == s["yStar"]]
    assert at[1] == s["widthAtYStar"] and at[2] == s["fStar"]


# a flat-bottomed well under 1e6 walls, on [0, 1]
_FLAT_BOTTOM = [
    "--set", "kind=piecewiseLinear", "--set", "n=1000",
    "--set", "params=0,1e6,0.2499,1e6,0.25,0,0.75,0,0.7501,1e6,1,1e6",
]


@pytest.mark.xfail(strict=True, reason="the sublevel minimum skips the levels just above min V")
def test_flat_bottom_lower_bound_is_below_lambda1(tmp_path):
    # bound prints lower 4000.004, eig1d lambda1 39.206 on the same grid
    assert main(["bound", *_FLAT_BOTTOM, "--out", str(tmp_path / "b")]) == 0
    assert main(["eig1d", *_FLAT_BOTTOM, "--out", str(tmp_path / "e")]) == 0
    lower = load(tmp_path / "b")[0]["summary"]["lower"]
    assert lower <= load(tmp_path / "e")[0]["summary"]["lambda1"]


def test_csv_bytes(tmp_path):
    prefix = tmp_path / "cb"
    args = ["constants", "--out", str(prefix)]
    args += ["--set", "alpha=0.5", "--set", "beta=0.25", "--set", "gamma=2"]
    assert main(args) == 1  # infeasible triple: objective is nan
    assert read_bytes(prefix, ".csv") == b"alpha,beta,gamma,objective\n0.5,0.25,2,nan\n"


def test_constants_default_objective(tmp_path):
    prefix = tmp_path / "c"
    assert main(["constants", "--out", str(prefix)]) == 0
    data, lines = load(prefix)
    summary = data["summary"]
    assert summary["objective"] == pytest.approx(0.004078255, abs=1e-6)
    assert summary["objective"] >= 1.0 / 250.0
    assert summary["feasible"] == 1
    assert summary["mode"] == "evaluate"
    assert lines[0] == "alpha,beta,gamma,objective"
    assert len(lines) == 2


def test_constants_search_deterministic(tmp_path):
    args = ["constants", "--set", "budget=400", "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "s1")]) == 0
    assert main(args + ["--out", str(tmp_path / "s2")]) == 0
    assert read_bytes(tmp_path / "s1", ".csv") == read_bytes(tmp_path / "s2", ".csv")
    data, _ = load(tmp_path / "s1")
    assert data["summary"]["mode"] == "search"
    assert data["summary"]["objective"] >= 0.004078
    assert data["config"]["seed"] == 3


def test_constants_summary_holds_the_gap_to_the_exact_optimum(tmp_path):
    runs = {
        "ev": (0, []),
        "se": (0, ["--set", "budget=2000", "--seed", "1"]),
        "in": (1, ["--set", "alpha=0.5", "--set", "beta=0.25", "--set", "gamma=2"]),
    }
    for name, (status, sets) in runs.items():
        assert main(["constants", *sets, "--out", str(tmp_path / name)]) == status
    exact = exact_optimum()
    for name in ("ev", "se"):
        data, lines = load(tmp_path / name)
        summary = data["summary"]
        assert summary["exactObjective"] == exact
        assert summary["exactGap"] == (exact - summary["objective"]) / exact
        assert lines[0] == "alpha,beta,gamma,objective"
    assert load(tmp_path / "ev")[0]["summary"]["exactGap"] == pytest.approx(0.01334, abs=1e-5)
    assert 0.0 < load(tmp_path / "se")[0]["summary"]["exactGap"] < 2e-3
    infeasible = load(tmp_path / "in")[0]["summary"]
    assert infeasible["exactObjective"] == exact and infeasible["exactGap"] is None


@pytest.mark.parametrize("command", ["vdberg", "gjCompare"])
def test_tol_below_the_residual_floor_is_input_error(tmp_path, capsys, command):
    # the float64 residual cannot reach 1e-15: rejected before any solve,
    # where it would spend the whole iteration cap and exit 1
    prefix = tmp_path / "t"
    assert main([command, "--set", "tol=1e-15", "--out", str(prefix)]) == 2
    assert capsys.readouterr().err.startswith("input error: tol must be at least 1e-13, got 1e-15")
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("command", ["vdberg", "gjCompare"])
@pytest.mark.parametrize("tol", ["1", "1e300"])
def test_tol_of_one_or_more_is_input_error(tmp_path, capsys, command, tol):
    # at tol=1e300 LOBPCG ran no iteration and the start vector, with a
    # relative residual of 3.6, passed every check with exit 0
    prefix = tmp_path / "t"
    assert main([command, "--set", f"tol={tol}", "--out", str(prefix)]) == 2
    message = f"input error: tol must be below 1, got {float(tol):g}"
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "t.json").exists()


def test_verify_thm1_subset(tmp_path):
    prefix = tmp_path / "v"
    assert main(["verifyThm1", "--out", str(prefix), "--set", "names=squareWell"]) == 0
    data, lines = load(prefix)
    assert data["summary"]["allPass"] == 1
    assert lines[0] == "potential,fStar,lambda1,lower,upper,pass"
    assert len(lines) == 2
    assert lines[1].startswith("squareWell,")
    assert lines[1].endswith(",1")


def test_thm1_suite_subset_filter(tmp_path, capsys):
    prefix = tmp_path / "v"
    for names in ("harmonic,squareWell", "harmonic,squareWell,harmonic,squareWell"):
        assert main(["verifyThm1", "--out", str(prefix), "--set", f"names={names}"]) == 0
        # a repeated name runs once, at its first place
        data, _ = load(prefix)
        assert [r["potential"] for r in data["summary"]["rows"]] == ["harmonic", "squareWell"]
    assert main(["verifyThm1", "--out", str(tmp_path / "u"), "--set", "names=noSuchWell"]) == 2
    assert capsys.readouterr().err.startswith("input error: unknown suite members ['noSuchWell']")


def test_verify_thm1_repeated_name_runs_once(tmp_path):
    prefix = tmp_path / "v"
    assert main(["verifyThm1", "--out", str(prefix), "--set", "names=squareWell,squareWell"]) == 0
    data, lines = load(prefix)
    assert [line.split(",")[0] for line in lines[1:]] == ["squareWell"]
    assert [r["potential"] for r in data["summary"]["rows"]] == ["squareWell"]


def test_rearrange_check_small(tmp_path):
    prefix = tmp_path / "r"
    args = ["rearrangeCheck", "--out", str(prefix), "--set", "count=2", "--seed", "7"]
    assert main(args) == 0
    data, lines = load(prefix)
    assert data["summary"]["count"] == 2
    assert data["summary"]["failures"] == 0
    header = "seedIndex,hlLeft,hlRight,psLeft,psRight,lambdaOriginal,lambdaRearranged,slack,pass"
    assert lines[0] == header
    assert len(lines) == 3


def test_vdberg_quick_and_deterministic(tmp_path):
    args = [
        "vdberg",
        "--set", "D=8",
        "--set", "spacing=0.0625",
    ]
    assert main(args + ["--out", str(tmp_path / "w1")]) == 0
    assert main(args + ["--out", str(tmp_path / "w2")]) == 0
    assert read_bytes(tmp_path / "w1", ".csv") == read_bytes(tmp_path / "w2", ".csv")
    data, lines = load(tmp_path / "w1")
    assert lines[0] == "D,rho,lambda1,supRatio,statistic,L,gjError"
    assert len(lines) == 2
    row = data["summary"]["rows"][0]
    assert row["rho"] == pytest.approx(1.0, abs=2e-3)
    assert row["statistic"] > 0
    assert data["config"]["spacing"] == 0.0625


@pytest.mark.parametrize(
    "command,config",
    [
        ("vdberg", '{"D": []}'),
        ("verifyThm1", '{"names": []}'),
        ("domainSweep", '{"D": []}'),
        ("domainSweep", '{"families": []}'),
        ("gjCompare", '{"D": []}'),
    ],
    ids=["vdberg-D", "verifyThm1-names", "domainSweep-D", "domainSweep-families", "gjCompare-D"],
)
def test_empty_suite_is_input_error(tmp_path, capsys, command, config):
    cfg = tmp_path / "empty.json"
    cfg.write_text(config)
    assert main([command, "--input", str(cfg), "--out", str(tmp_path / "ve")]) == 2
    assert "input error:" in capsys.readouterr().err
    assert not (tmp_path / "ve.json").exists()


def test_vdberg_sweep_sorts_by_size(tmp_path):
    prefix = tmp_path / "ws"
    assert main(["vdberg", "--set", "D=12,8,12", "--set", "spacing=0.0625", "--out", str(prefix)]) == 0
    data, _ = load(prefix)
    assert [r["D"] for r in data["summary"]["rows"]] == [8.0, 12.0]


def test_vdberg_bands_hold_for_single_member(tmp_path):
    prefix = tmp_path / "wb"
    args = ["vdberg", "--out", str(prefix), "--set", "D=8", "--set", "spacing=0.0625"]
    assert main(args) == 0
    # one size has no slope: null, as NaN would not be valid JSON (load is strict)
    data, _ = load(prefix)
    assert data["summary"]["allPass"] == 1
    assert data["summary"]["slope"] is None


def test_gjcompare_quick_pass(tmp_path):
    prefix = tmp_path / "g"
    args = ["gjCompare", "--out", str(prefix), "--set", "D=16", "--set", "spacing=0.03125"]
    assert main(args) == 0
    data, lines = load(prefix)
    assert data["summary"]["rectError"] <= 0.01
    assert data["summary"]["allPass"] == 1
    assert 0.25 <= data["summary"]["rows"][0]["ratio"] <= 4.0
    assert lines[0] == "case,D,value,pass"
    assert lines[1].startswith("rectProfile,")
    assert lines[2].startswith("coneRatio,16,")


def test_gjcompare_repeated_size_runs_once(tmp_path):
    # sizes are a set: D=16,16 solves the cone once and writes one row
    prefix = tmp_path / "gr"
    args = ["gjCompare", "--out", str(prefix), "--set", "D=16,16", "--set", "spacing=0.03125"]
    assert main(args) == 0
    data, lines = load(prefix)
    assert [line.split(",")[0] for line in lines[1:]] == ["rectProfile", "coneRatio"]
    assert [r["D"] for r in data["summary"]["rows"]] == [16.0]
    assert data["config"]["D"] == [16, 16]  # the JSON keeps the resolved value


def test_domainsweep_quick(tmp_path):
    prefix = tmp_path / "d"
    args = [
        "domainSweep",
        "--out", str(prefix),
        "--set", "families=cone,stadium",
        "--set", "D=16,32",
    ]
    assert main(args) == 0
    data, lines = load(prefix)
    header = (
        "family,D,inradius,diameter,minWidth,L,lambda1,lower,upper,"
        "widthRatio,shiftedProduct,pass"
    )
    assert lines[0] == header
    assert len(lines) == 5
    keys = [(r["family"], r["D"]) for r in data["summary"]["rows"]]
    assert keys == [("cone", 16.0), ("cone", 32.0), ("stadium", 16.0), ("stadium", 32.0)]
    for row in data["summary"]["rows"]:
        assert 1.0 / 20.0 <= row["shiftedProduct"] <= 20.0
        assert row["pass"] == 1


def test_malformed_json_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    prefix = tmp_path / "m"
    assert main(["bound", "--input", str(bad), "--out", str(prefix)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "content, message",
    [
        # json.load refuses integers of more than 4300 digits with a ValueError
        (b'{"n": ' + b"9" * 5000 + b"}", "digits"),
        (b'\xff\xfe{"n": 5}', "utf-8"),
    ],
    ids=["huge-integer", "not-utf-8"],
)
def test_unparsable_input_is_input_error(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert main(["bound", "--input", str(cfg), "--out", str(tmp_path / "h")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err
    assert not (tmp_path / "h.json").exists()


def test_boolean_input_is_input_error(tmp_path, capsys):
    # JSON true is a bool, which Python would otherwise read as the integer 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": true}')
    assert main(["bound", "--input", str(cfg), "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err.startswith("input error: expected an integer, got True")
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize(
    "value, text",
    [
        (True, "1"),
        (np.True_, "1"),
        (np.int64(7), "7"),
        (0.1, "0.10000000000000001"),
        (np.float64(0.1), "0.10000000000000001"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        ("cone", "cone"),
    ],
    ids=["bool", "numpy-bool", "numpy-int", "float", "numpy-float", "nan", "inf", "str"],
)
def test_csv_field_format(tmp_path, value, text):
    prefix = str(tmp_path / "f")
    _write_outputs(prefix, {}, "v", [[value]])
    assert read_bytes(prefix, ".csv") == reference_csv("v", [[value]]) == f"v\n{text}\n".encode()


@pytest.mark.parametrize("resolution", [0, -3])
def test_non_positive_resolution_is_input_error(tmp_path, capsys, resolution):
    prefix = tmp_path / "r"
    args = ["domainSweep", "--out", str(prefix), "--set", f"resolution={resolution}"]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("input error: resolution must be at least 1")
    assert not (tmp_path / "r.json").exists()


def test_coarse_resolution_names_resolution(tmp_path, capsys):
    # the isoTriangle profile sampled at resolution 64 misses its peak of 1
    prefix = tmp_path / "cr"
    args = ["domainSweep", "--out", str(prefix)]
    args += ["--set", "resolution=64", "--set", "families=isoTriangle"]
    assert main(args) == 2
    assert "resolution" in capsys.readouterr().err
    assert not (tmp_path / "cr.json").exists()


# pass bands are constants in pipeline, never config keys
@pytest.mark.parametrize(
    "command, setting",
    [
        ("bound", "bogus=3"),
        ("verifyThm1", "slack=0.5"),
        ("gjCompare", "rectErrorBudget=1"),
        ("vdberg", "checkBands=false"),
        ("domainSweep", "checkBands=false"),
    ],
)
def test_unknown_config_key(tmp_path, capsys, command, setting):
    assert main([command, "--out", str(tmp_path / "u"), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: unknown config key")
    assert setting.partition("=")[0] in err
    assert not (tmp_path / "u.json").exists()


# small sizes for the commands whose defaults take seconds
_GUARD_SETS = {
    "vdberg": {"D": [8.0], "spacing": 1.0 / 16.0},
    "gjCompare": {"D": [16.0], "spacing": 1.0 / 32.0},
    "domainSweep": {"families": ["cone"], "D": [16.0]},
    "rearrangeCheck": {"count": 2},
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_default_key_is_read(command):
    # the runner takes each default key, with no default of its own, and
    # reads it: a key the runner never reads is an input nothing varies
    runner = COMMANDS[command].runner
    assert runner.__module__ == "specgap.pipeline"
    parameters = inspect.signature(runner).parameters.values()
    assert {p.name for p in parameters} == set(COMMANDS[command].defaults)
    assert all(p.default is inspect.Parameter.empty for p in parameters)
    body = ast.parse(textwrap.dedent(inspect.getsource(runner))).body[0].body
    loaded = {
        node.id
        for statement in body
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert set(COMMANDS[command].defaults) <= loaded


def _as_sets(overrides):
    args = []
    for key, value in overrides.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        args += ["--set", f"{key}={text}"]
    return args


def _small(command):
    return [command, *_as_sets(_GUARD_SETS.get(command, {}))]


def test_every_public_function_is_reached(tmp_path):
    # a public function that no command calls belongs in the tests as a
    # reference; a name scan would miss one that shares a local's name
    names = [m.name for m in pkgutil.iter_modules(specgap.__path__) if m.name != "__main__"]
    public = {}
    for module in [specgap] + [importlib.import_module(f"specgap.{n}") for n in names]:
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and name[0] != "_":
                public[obj.__code__] = f"{module.__name__}.{name}"
    runs = [_small(c) for c in sorted(COMMANDS)]
    runs.append(["constants", "--set", "budget=50"])
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        statuses = [main(argv + ["--out", str(tmp_path / "p")]) for argv in runs]
    finally:
        sys.setprofile(None)
    assert statuses == [0] * len(runs)
    assert sorted(name for code, name in public.items() if code not in called) == []


def test_every_default_is_passed_somewhere():
    # a default parameter that no call in the package overrides sets nothing:
    # it is a constant and belongs in the function; main's argv=None stands
    # for sys.argv, which the console script and `python -m specgap` give it
    trees = [ast.parse(p.read_text()) for p in Path(specgap.__file__).parent.glob("*.py")]
    defaulted = {}  # public function name -> [(position or None, parameter)]
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name[0] != "_" and node.name != "main":
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                found = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
                found += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                defaulted.setdefault(node.name, []).extend(found)
    passed = set()
    for call in (node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        for position, parameter in defaulted.get(name, []):
            keywords = {k.arg for k in call.keywords}  # None is a **mapping
            if keywords & {parameter, None} or position is not None and position < len(call.args):
                passed.add((name, parameter))
    unpassed = [(name, p) for name, found in defaulted.items() for _, p in found]
    assert sorted(set(unpassed) - passed) == []


def _package_imports():
    """Each specgap module's name, with the specgap modules it imports from."""
    imports = {}
    for path in Path(specgap.__file__).parent.glob("*.py"):
        found = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = (a.name for a in node.names)
                found.update(n.split(".")[1] for n in names if n.startswith("specgap."))
            elif isinstance(node, ast.ImportFrom):
                module = "specgap." + node.module if node.level and node.module else node.module
                if module in (None, "specgap"):  # from . import m, from specgap import m
                    found.update(a.name for a in node.names)
                elif module.startswith("specgap."):
                    found.add(module.split(".")[1])
        imports[path.stem] = found
    return imports


def test_module_layering():
    # the 2D solver stands on the geometry alone; what a run measures and
    # judges lives in pipeline, and only the CLI calls it
    imports = _package_imports()
    assert imports["eigensolve2d"] == {"convexdomain", "errors"}
    assert sorted(name for name, found in imports.items() if "pipeline" in found) == ["cli"]


_INFEASIBLE = {"alpha": 0.5, "beta": 0.25, "gamma": 2}  # objective nan, exits 1


@pytest.mark.parametrize(
    "argv, status",
    [(_small(c), 0) for c in sorted(COMMANDS)]
    + [(["constants", *_as_sets(_INFEASIBLE)], 1)],
    ids=sorted(COMMANDS) + ["constants-infeasible"],
)
def test_csv_matches_reference_format(tmp_path, monkeypatch, argv, status):
    # the line format is taken from the first row, so every row must have
    # the cell types of the first: a str in a number column would not format
    recorded = record_rows(monkeypatch, argv[0])
    prefix = tmp_path / "ref"
    assert main(argv + ["--out", str(prefix)]) == status
    [rows] = recorded
    assert rows and len({tuple(map(type, row)) for row in rows}) == 1
    has_text = any(isinstance(v, str) for v in rows[0])
    assert has_text == (argv[0] in {"verifyThm1", "domainSweep", "gjCompare"})
    assert read_bytes(prefix, ".csv") == reference_csv(COMMANDS[argv[0]].header, rows)


# a band out of reach, or an infeasible triple, fails the named check: exit 1,
# and both files are still written, with the CSV's header and every row
@pytest.mark.parametrize(
    "bands, argv, check, rows",
    [
        (
            {"SANDWICH_SLACK": -0.9},
            ["verifyThm1", "--set", "names=squareWell"],
            "squareWell.sandwich",
            1,
        ),
        ({"PRODUCT_BAND": (1e6, 1e7)}, _small("domainSweep"), "cone16.shiftedProduct", 1),
        ({"PRODUCT_BAND": (1e6, 1e7)}, _small("vdberg"), "D8.shiftedProduct", 1),
        ({"CHAIN_SLACK_FACTOR": -1e3}, _small("rearrangeCheck"), "draw1.chain", 2),
        ({"RECT_ERROR_BUDGET": 1e-9}, _small("gjCompare"), "rectError", 2),
        ({"GJ_RATIO_BAND": (1e6, 1e7)}, _small("gjCompare"), "D16.ratio", 2),
        ({"STAT_SPREAD_MAX": 0.5}, _small("vdberg"), "statSpread", 1),
        ({}, ["constants", *_as_sets(_INFEASIBLE)], "feasible", 1),
    ],
    ids=[
        "verifyThm1", "domainSweep", "vdberg", "rearrangeCheck", "gjCompare-rectError",
        "gjCompare-ratio", "vdberg-statSpread", "constants-infeasible",
    ],
)
def test_failed_band_exits_one(tmp_path, monkeypatch, bands, argv, check, rows):
    for band, value in bands.items():
        monkeypatch.setattr(pipeline, band, value)
    prefix = tmp_path / "fb"
    assert main(argv + ["--out", str(prefix)]) == 1
    data, lines = load(prefix)
    summary = data["summary"]
    assert summary["allPass"] == 0
    assert [c["pass"] for c in summary["checks"] if c["name"] == check] == [0]
    assert lines[0] == COMMANDS[argv[0]].header
    assert len(lines) == 1 + rows


@pytest.mark.parametrize(
    "argv",
    [_small(c) for c in sorted(COMMANDS)] + [["constants", *_as_sets(_INFEASIBLE)]],
    ids=sorted(COMMANDS) + ["constants-infeasible"],
)
def test_every_command_reports_named_checks(tmp_path, argv):
    # one check format, and one rule from the checks to allPass and the exit status
    prefix = tmp_path / "nc"
    status = main(argv + ["--out", str(prefix)])
    data, _ = load(prefix)  # strict: an open bound is null, never Infinity
    checks = data["summary"]["checks"]
    for check in checks:
        assert sorted(check) == ["bound", "name", "pass", "value"]
        lo, hi = check["bound"]
        value = check["value"]
        assert check["pass"] == ((lo is None or lo <= value) and (hi is None or value <= hi))
    names = [check["name"] for check in checks]
    assert len(set(names)) == len(names)
    assert data["summary"]["allPass"] == all(check["pass"] for check in checks)
    assert status == 1 - data["summary"]["allPass"]


@pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"rearrangeCheck", "constants"}))
def test_seed_of_an_unseeded_command_is_unknown_key(tmp_path, capsys, command):
    # only rearrangeCheck and constants draw random numbers
    assert "seed" not in COMMANDS[command].defaults
    assert main([command, "--seed", "1", "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith("input error: unknown config key 'seed'")
    assert not (tmp_path / "s.json").exists()


def test_eig1d_tol_is_unknown_key(tmp_path, capsys):
    # the 1D solver's accuracy comes from its residual target, not a setting
    assert main(["eig1d", "--set", "tol=1e-6", "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err.startswith("input error: unknown config key 'tol'")
    assert not (tmp_path / "t.json").exists()


def test_zero_params_is_a_parameter(tmp_path):
    # params=0 is the centre 0, as the list [0] is, not the default centre
    harmonic = ["bound", "--set", "kind=harmonic", "--set", "interval=0,1"]
    assert main(harmonic + ["--set", "params=0", "--out", str(tmp_path / "z")]) == 0
    (tmp_path / "list.json").write_text(json.dumps({"params": [0.0]}))
    assert main(harmonic + ["--input", str(tmp_path / "list.json"), "--out", str(tmp_path / "l")]) == 0
    assert main(harmonic + ["--set", "params=0.5", "--out", str(tmp_path / "h")]) == 0
    assert load(tmp_path / "z")[0]["summary"] == load(tmp_path / "l")[0]["summary"]
    assert load(tmp_path / "z")[0]["summary"] != load(tmp_path / "h")[0]["summary"]


def test_zero_slope_is_input_error(tmp_path, capsys):
    args = ["bound", "--set", "kind=linearWell", "--set", "params=0", "--out", str(tmp_path / "s")]
    assert main(args) == 2
    assert "linearWell slope must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sets, message",
    [
        (["kind=harmonic", "params=0.5,99,7"], "harmonic takes at most 1 parameters, got 3"),
        (["params=5"], "squareWell takes at most 0 parameters, got 1"),
    ],
    ids=["harmonic", "squareWell"],
)
def test_extra_params_are_input_error(tmp_path, capsys, sets, message):
    # a mistyped params list used to run with the parameters the kind reads
    args = ["bound", *(a for s in sets for a in ("--set", s)), "--out", str(tmp_path / "p")]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


def test_false_budget_is_input_error(tmp_path, capsys):
    # JSON false is not the budget 0
    (tmp_path / "f.json").write_text('{"budget": false}')
    assert main(["constants", "--input", str(tmp_path / "f.json"), "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err.startswith("input error: expected an integer, got False")
    assert not (tmp_path / "b.json").exists()


def test_search_mode_still_checks_the_triple(tmp_path, capsys):
    # every key is coerced before the run, also one the search never reads
    args = ["constants", "--set", "budget=5", "--set", "alpha=x", "--out", str(tmp_path / "cx")]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("input error: expected a finite number, got 'x'")
    assert not (tmp_path / "cx.json").exists()


def test_unwritable_out_is_input_error(tmp_path, capsys):
    # the output directory would sit where a file is: no traceback, no file
    blocker = tmp_path / "f.csv"
    blocker.write_text("kept")
    prefix = blocker / "x"
    assert main(["constants", "--out", str(prefix)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {prefix}: ")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]
    assert blocker.read_text() == "kept"


def test_bad_set_syntax(tmp_path, capsys):
    assert main(["bound", "--out", str(tmp_path / "u"), "--set", "noequals"]) == 2
    assert "noequals" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, setting",
    [
        ("bound", "n=abc"),
        ("vdberg", "tol=abc"),
        ("constants", "budget=x"),
        ("constants", "budget="),  # empty is not 0
        ("bound", "n=1,2"),
        # non-integral sizes are rejected, not truncated
        ("eig1d", "n=999.9"),
        ("rearrangeCheck", "count=2.5"),
        ("rearrangeCheck", "knots=8.5"),
        ("domainSweep", "resolution=256.5"),
        ("constants", "budget=1.5"),
        ("constants", "seed=1.5"),
        # true/false are names, not numbers
        ("rearrangeCheck", "vmax=true"),
        ("eig1d", "n=true"),
        # NaN and Infinity are not JSON (RFC 8259), so no config may hold them
        ("constants", "gamma=inf"),
        ("constants", "alpha=nan"),
        ("eig1d", "params=inf"),
        # a long value is quoted in part
        pytest.param("bound", "n=" + "x" * 1000, id="bound-n=long"),
        pytest.param("bound", "n=" + ",".join(["1"] * 500), id="bound-n=long-list"),
        pytest.param("vdberg", "tol=" + "x" * 1000, id="vdberg-tol=long"),
    ],
)
def test_non_numeric_set_is_input_error(tmp_path, capsys, command, setting):
    prefix = tmp_path / "nn"
    assert main([command, "--out", str(prefix), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: expected")
    assert len(err) < 120
    assert not (tmp_path / "nn.json").exists()


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("bound", "kind=" + "x" * 1000, "unknown potential kind 'xxx"),
        ("domainSweep", "families=" + "x" * 1000, "unknown family kind: 'xxx"),
        ("bound", "x" * 1000 + "=1", "unknown config key 'xxx"),
    ],
    ids=["kind", "family", "key"],
)
def test_long_unknown_name_is_cut_in_the_message(tmp_path, capsys, command, setting, message):
    assert main([command, "--out", str(tmp_path / "long"), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {message}")
    assert len(err) < 120


@pytest.mark.parametrize("width", ["1.2e-76", "9e-77"])
def test_operator_norm_whose_square_overflows_is_input_error(tmp_path, capsys, width):
    # 1/dx^2 is finite, but the residual's norm squares entries of the
    # operator norm's size, and at these widths the square overflows
    args = ["eig1d", "--out", str(tmp_path / "tiny"), "--set", "n=10"]
    assert main(args + ["--set", f"interval=0,{width}"]) == 2
    assert capsys.readouterr().err.startswith("input error: operator norm")
    assert not (tmp_path / "tiny.json").exists()
    assert main(args + ["--set", "interval=0,1e-75"]) == 0


# a command that takes each integer key
_INT_KEY_COMMAND = {
    "n": "bound", "knots": "rearrangeCheck", "count": "rearrangeCheck",
    "resolution": "domainSweep", "budget": "constants", "seed": "rearrangeCheck",
}


def _int_bound_cases():
    # one past each end of INT_RANGE, never a bound itself, and budget=-5
    for key, (lo, hi) in INT_RANGE.items():
        if lo is not None:
            yield pytest.param(key, lo - 1, f"at least {lo}", id=f"{key}={lo - 1}")
        if hi is not None:
            yield pytest.param(key, hi + 1, f"at most {hi}", id=f"{key}={hi + 1}")
    yield pytest.param("budget", -5, "at least 0", id="budget=-5")


@pytest.mark.parametrize("key, value, rule", _int_bound_cases())
def test_integer_key_outside_its_range_is_input_error(tmp_path, capsys, key, value, rule):
    # rejected before the run, with the key and the bound it broke
    prefix = tmp_path / "range"
    assert main([_INT_KEY_COMMAND[key], "--set", f"{key}={value}", "--out", str(prefix)]) == 2
    assert capsys.readouterr().err == f"input error: {key} must be {rule}, got {value}\n"
    assert not (tmp_path / "range.json").exists()


@pytest.mark.parametrize(
    "command, key",
    [("bound", "n"), ("eig1d", "n"), ("rearrangeCheck", "n"), ("rearrangeCheck", "knots"),
     ("rearrangeCheck", "count"), ("domainSweep", "resolution"), ("constants", "budget")],
)
@pytest.mark.parametrize("value", ["9" * 401])
def test_size_over_its_cap_is_input_error(tmp_path, capsys, command, key, value):
    # checked before anything is allocated, and named by its digit count; max + 1
    # is test_integer_key_outside_its_range_is_input_error's
    prefix = tmp_path / "big"
    assert main([command, "--out", str(prefix), "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {key} must be at most")
    assert len(err) < 120  # a long integer is named by its digit count, not echoed
    assert not (tmp_path / "big.json").exists()


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_run_takes_plain_arguments(tmp_path, capsys):
    # the Python entry point: command, input path, output prefix, overrides
    prefix = str(tmp_path / "api")
    assert run("constants", None, prefix, {"alpha": 0.99}) == 0
    data, _ = load(prefix)
    assert (data["command"], data["input"], data["output"]) == ("constants", None, prefix)
    assert data["summary"]["objective"] == pytest.approx(0.004078255, abs=1e-6)
    # a command argparse's choices would reject is an input error here
    assert run("frobnicate", None, str(tmp_path / "x"), {}) == 2
    assert capsys.readouterr().err == "input error: unknown command 'frobnicate'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["api.csv", "api.json"]


def child_env():
    # A child may run in another directory, where a relative PYTHONPATH entry
    # such as "src" no longer resolves; point it at the package this process
    # imported.
    package_root = str(Path(specgap.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    return env


def test_module_entrypoint_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "specgap", "constants", "--out", "c"],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "c.json").exists()
    assert (tmp_path / "c.csv").exists()


def test_import_loads_no_heavy_scipy_subpackage(tmp_path):
    # start-up needs numpy and scipy.linalg only
    heavy = (
        "scipy.optimize", "scipy.spatial", "scipy.ndimage", "scipy.fft", "scipy.special",
        "scipy.sparse",
    )
    code = (
        "import sys, specgap.cli; "
        f"print(sorted(m for m in sys.modules if m.startswith({heavy!r})))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=child_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["gjCompare", "--set", "spacing=1e-300"],
        ["vdberg", "--set", "spacing=1e-300"],
        # far past the cap, yet a valid cone: rejected at the grid, unallocated
        ["vdberg", "--set", "D=1e8"],
        ["domainSweep", "--set", "D=1e8", "--set", "families=cone"],
        ["gjCompare", "--set", "D=1e8", "--set", "spacing=0.0625"],
    ],
)
def test_grid_over_node_cap_is_input_error(tmp_path, capsys, argv):
    prefix = tmp_path / "big"
    assert main(argv + ["--out", str(prefix)]) == 2
    assert f"MAX_GRID_NODES = {MAX_GRID_NODES}" in capsys.readouterr().err
    assert not (tmp_path / "big.json").exists()


@pytest.mark.parametrize("command", ["gjCompare", "domainSweep", "vdberg"])
def test_huge_diameter_is_input_error(tmp_path, capsys, command):
    # at 1e9 the unit inradius falls under 1e-9 of the cone's length, and
    # gjCompare's height profile passes the node cap first; at 1e300 the
    # disk's edges vanish next to it: no valid polygon either way
    prefix = tmp_path / "huge"
    at_1e9 = "MAX_GRID_NODES" if command == "gjCompare" else "inradius 1 against extent 1e+09"
    for d, measured in (("1e9", at_1e9), ("1e300", "against extent 1e+300")):
        assert main([command, "--set", f"D={d}", "--out", str(prefix)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and measured in err
        assert not (tmp_path / "huge.json").exists()
