"""Command-line interface tests: config resolution, file outputs, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specgap
from specgap import pipeline
from specgap.cli import COMMANDS, MAX_SIZE, RunConfig, _fmt, _resolve, main, run
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


def test_verify_thm1_subset(tmp_path):
    prefix = tmp_path / "v"
    assert main(["verifyThm1", "--out", str(prefix), "--set", "names=squareWell"]) == 0
    data, lines = load(prefix)
    assert data["summary"]["allPass"] == 1
    assert lines[0] == "potential,fStar,lambda1,lower,upper,pass"
    assert len(lines) == 2
    assert lines[1].startswith("squareWell,")
    assert lines[1].endswith(",1")


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


def test_gjcompare_budget_failure_exits_one(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "RECT_ERROR_BUDGET", 1e-9)
    prefix = tmp_path / "gf"
    args = ["gjCompare", "--out", str(prefix), "--set", "D=16", "--set", "spacing=0.03125"]
    assert main(args) == 1
    data, lines = load(prefix)
    assert data["summary"]["rectPass"] == 0
    assert data["summary"]["rectBudget"] == 1e-9
    assert len(lines) == 3


# a band out of reach fails the verdict: exit 1, and both files are still written
@pytest.mark.parametrize(
    "band, value, argv",
    [
        ("SANDWICH_SLACK", -0.9, ["verifyThm1", "--set", "names=squareWell"]),
        ("PRODUCT_BAND", (1e6, 1e7), ["domainSweep", "--set", "families=cone", "--set", "D=16"]),
        ("PRODUCT_BAND", (1e6, 1e7), ["vdberg", "--set", "D=8", "--set", "spacing=0.0625"]),
    ],
    ids=["verifyThm1", "domainSweep", "vdberg"],
)
def test_failed_band_exits_one(tmp_path, monkeypatch, band, value, argv):
    monkeypatch.setattr(pipeline, band, value)
    prefix = tmp_path / "fb"
    assert main(argv + ["--out", str(prefix)]) == 1
    data, lines = load(prefix)
    assert data["summary"]["allPass"] == 0
    assert len(lines) == 2  # header and the one row


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
def test_csv_field_format(value, text):
    assert _fmt(value) == text


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


class _ReadRecorder(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# small sizes for the commands whose defaults take seconds
_GUARD_SETS = {
    "vdberg": {"D": [8.0], "spacing": 1.0 / 16.0},
    "gjCompare": {"D": [16.0], "spacing": 1.0 / 32.0},
    "domainSweep": {"families": ["cone"], "D": [16.0]},
    "rearrangeCheck": {"count": 2},
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_default_key_is_read(command):
    # a key the runner never reads is an input nothing varies
    overrides = _GUARD_SETS.get(command, {})
    cfg = _ReadRecorder(_resolve(RunConfig(command, None, "unused", overrides)))
    COMMANDS[command].runner(cfg)
    assert set(COMMANDS[command].defaults) <= cfg.read


def test_bad_set_syntax(tmp_path, capsys):
    assert main(["bound", "--out", str(tmp_path / "u"), "--set", "noequals"]) == 2
    assert "noequals" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, setting",
    [
        ("bound", "n=abc"),
        ("eig1d", "tol=abc"),
        ("constants", "budget=x"),
        ("bound", "n=1,2"),
        # non-integral sizes are rejected, not truncated
        ("eig1d", "n=999.9"),
        ("rearrangeCheck", "count=2.5"),
        ("rearrangeCheck", "knots=8.5"),
        ("domainSweep", "resolution=256.5"),
        ("constants", "budget=1.5"),
        ("constants", "budget=-5"),
        ("constants", "seed=1.5"),
        # true/false are names, not numbers
        ("rearrangeCheck", "vmax=true"),
        ("eig1d", "n=true"),
        # NaN and Infinity are not JSON (RFC 8259), so no config may hold them
        ("constants", "gamma=inf"),
        ("constants", "alpha=nan"),
        ("eig1d", "params=inf"),
    ],
)
def test_non_numeric_set_is_input_error(tmp_path, capsys, command, setting):
    prefix = tmp_path / "nn"
    assert main([command, "--out", str(prefix), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: expected")
    assert not (tmp_path / "nn.json").exists()


@pytest.mark.parametrize(
    "command, key",
    [("bound", "n"), ("eig1d", "n"), ("rearrangeCheck", "n"), ("rearrangeCheck", "knots"),
     ("rearrangeCheck", "count"), ("domainSweep", "resolution")],
)
@pytest.mark.parametrize("over", [1, "9" * 401])
def test_size_over_its_cap_is_input_error(tmp_path, capsys, command, key, over):
    # checked before anything is allocated; never run at the cap itself
    value = MAX_SIZE[key] + 1 if over == 1 else over
    prefix = tmp_path / "big"
    assert main([command, "--out", str(prefix), "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {key} must be at most")
    assert not (tmp_path / "big.json").exists()


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_runconfig_api(tmp_path):
    cfg = RunConfig(command="constants", input=None, output=str(tmp_path / "api"), overrides={})
    assert run(cfg) == 0
    data, _ = load(tmp_path / "api")
    assert data["summary"]["objective"] == pytest.approx(0.004078255, abs=1e-6)


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
    # start-up needs numpy, scipy.linalg and scipy.sparse.linalg only
    heavy = ("scipy.optimize", "scipy.spatial", "scipy.ndimage", "scipy.fft", "scipy.special")
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
