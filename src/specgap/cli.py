"""Command line front end.

Each subcommand resolves its configuration from built-in defaults, an
optional JSON file, and repeated --set overrides, runs the matching
computation, and writes two files: <prefix>.json with a summary plus
the fully resolved configuration, and <prefix>.csv with the row data.

Exit status: 0 on success, 1 when a scientific check fails or the
numerics break down, 2 on bad input.
"""

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import pipeline
from .constants import ConstantTriple, is_feasible, objective, search
from .eigensolve1d import discretize, smallest_eigenpair
from .errors import GeometryError, NumericError, ParameterError
from .potential import PotentialSpec, sample
from .sublevel import minimize_functional, width_profile

_PI2 = math.pi**2

THM1_NAMES = [
    "squareWell",
    "linearWell",
    "harmonic",
    "quartic",
    "coneModel16",
    "coneModel64",
    "coneModel256",
]

DEFAULTS: Dict[str, Dict[str, object]] = {
    "bound": {"kind": "squareWell", "params": [], "interval": [0.0, 1.0], "n": 1000},
    "eig1d": {
        "kind": "squareWell",
        "params": [],
        "interval": [0.0, 1.0],
        "n": 1000,
        "tol": 1e-10,
    },
    "verifyThm1": {"names": list(THM1_NAMES), "slack": 0.01},
    "rearrangeCheck": {
        "count": 200,
        "knots": 8,
        "vmax": 50.0,
        "interval": [0.0, 1.0],
        "n": 800,
    },
    "constants": {"alpha": 0.99, "beta": 0.007, "gamma": 14.1327, "budget": 0},
    "domainSweep": {
        "families": ["cone", "stadium", "isoTriangle"],
        "D": [16.0, 64.0, 256.0],
        "resolution": 256,
        "checkBands": True,
    },
    "vdberg": {
        "D": [8.0, 16.0, 32.0, 64.0],
        "spacing": 1.0 / 64.0,
        "tol": 1e-6,
        "checkBands": True,
    },
    "gjCompare": {
        "D": [16.0, 64.0, 256.0],
        "spacing": 1.0 / 64.0,
        "tol": 1e-7,
        "rectErrorBudget": 1e-2,
    },
}

SLOPE_MAX = -1.0 / 6.0 + 0.05
PRODUCT_BAND = (1.0 / 20.0, 20.0)
RATIO_BAND = (0.5, 2.0)
RHO_TOL = 1e-3
STAT_SPREAD_MAX = 2.0


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: Optional[str]
    output: str
    overrides: Dict[str, object] = field(default_factory=dict)


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _as_float(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"expected a number, got {value!r}") from None


def _as_int(value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"expected an integer, got {value!r}") from None


def _as_float_list(value) -> List[float]:
    if isinstance(value, (list, tuple)):
        return [_as_float(v) for v in value]
    if isinstance(value, (int, float, np.integer, np.floating)):
        return [float(value)]
    raise ParameterError(f"expected a number or list of numbers, got {value!r}")


def _as_str_list(value) -> List[str]:
    if isinstance(value, str):
        return [value]
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    raise ParameterError(f"expected a name or list of names, got {value!r}")


def _interval(value) -> Tuple[float, float]:
    pair = _as_float_list(value)
    if len(pair) != 2:
        raise ParameterError(f"interval needs exactly two endpoints, got {value!r}")
    return pair[0], pair[1]


def _grid_from(cfg: Dict[str, object]):
    spec = PotentialSpec(
        kind=str(cfg["kind"]),
        params=tuple(_as_float_list(cfg["params"]) if cfg["params"] else ()),
        interval=_interval(cfg["interval"]),
    )
    return sample(spec, _as_int(cfg["n"]))


def _cmd_bound(cfg):
    grid = _grid_from(cfg)
    report = minimize_functional(grid)
    summary = {
        "yStar": report.yStar,
        "widthAtYStar": report.widthAtYStar,
        "fStar": report.fStar,
        "isInterval": bool(report.isInterval),
        "lower": report.lowerBound,
        "upperSharp": report.upperBoundSharp,
    }
    levels, widths, functional = width_profile(grid)
    rows = zip(levels.tolist(), widths.tolist(), functional.tolist())
    return summary, ["y", "width", "functional"], rows, 0


def _cmd_eig1d(cfg):
    grid = _grid_from(cfg)
    pair = smallest_eigenpair(discretize(grid), tol=_as_float(cfg["tol"]))
    summary = {
        "lambda1": pair.lambda1,
        "n": grid.n,
        "dx": grid.dx,
        "residual": pair.residual,
        "normL2": pair.normL2,
    }
    x = grid.nodes()[1:-1]
    rows = zip(x.tolist(), pair.f.tolist())
    return summary, ["x", "f"], rows, 0


def _cmd_verify_thm1(cfg):
    suite = pipeline.thm1_suite(_as_str_list(cfg["names"]))
    rows = pipeline.verify_thm1(suite, slack=_as_float(cfg["slack"]))
    all_ok = all(r["pass"] for r in rows)
    summary = {"allPass": int(all_ok), "rows": rows}
    cols = ["potential", "fStar", "lambda1", "lower", "upper", "pass"]
    table = [[r[c] for c in cols] for r in rows]
    return summary, cols, table, 0 if all_ok else 1


def _cmd_rearrange_check(cfg):
    rows = pipeline.rearrange_random_suite(
        count=_as_int(cfg["count"]),
        seed=_as_int(cfg["seed"]),
        knots=_as_int(cfg["knots"]),
        vmax=_as_float(cfg["vmax"]),
        interval=_interval(cfg["interval"]),
        n=_as_int(cfg["n"]),
    )
    failures = sum(1 for r in rows if not r["pass"])
    summary = {"count": len(rows), "failures": failures, "rows": rows}
    cols = [
        "seedIndex",
        "hlLeft",
        "hlRight",
        "psLeft",
        "psRight",
        "lambdaOriginal",
        "lambdaRearranged",
        "slack",
        "pass",
    ]
    table = [[r[c] for c in cols] for r in rows]
    return summary, cols, table, 0 if failures == 0 else 1


def _cmd_constants(cfg):
    budget = _as_int(cfg["budget"] or 0)
    if budget > 0:
        triple, value = search(budget, _as_int(cfg["seed"]))
        summary = {
            "mode": "search",
            "alpha": triple.alpha,
            "beta": triple.beta,
            "gamma": triple.gamma,
            "objective": value,
            "feasible": 1,
            "budget": budget,
        }
        status = 0
    else:
        triple = ConstantTriple(
            alpha=_as_float(cfg["alpha"]),
            beta=_as_float(cfg["beta"]),
            gamma=_as_float(cfg["gamma"]),
        )
        feasible = is_feasible(triple)
        summary = {
            "mode": "evaluate",
            "alpha": triple.alpha,
            "beta": triple.beta,
            "gamma": triple.gamma,
            "objective": objective(triple) if feasible else None,
            "feasible": int(feasible),
        }
        status = 0 if feasible else 1
    row = [summary["alpha"], summary["beta"], summary["gamma"], summary["objective"]]
    if summary["objective"] is None:
        row[3] = float("nan")
    return summary, ["alpha", "beta", "gamma", "objective"], [row], status


def _cmd_domain_sweep(cfg):
    rows = pipeline.domain_sweep(
        _as_str_list(cfg["families"]),
        _as_float_list(cfg["D"]),
        resolution=_as_int(cfg["resolution"]),
    )
    all_ok = all(r["pass"] for r in rows)
    summary = {"allPass": int(all_ok), "rows": rows}
    cols = [
        "family",
        "D",
        "inradius",
        "diameter",
        "minWidth",
        "L",
        "lambda1",
        "lower",
        "upper",
        "widthRatio",
        "shiftedProduct",
        "pass",
    ]
    table = [[r[c] for c in cols] for r in rows]
    status = 1 if bool(cfg["checkBands"]) and not all_ok else 0
    return summary, cols, table, status


def _cmd_vdberg(cfg):
    rows = pipeline.vdberg_sweep(
        _as_float_list(cfg["D"]),
        spacing=_as_float(cfg["spacing"]),
        tol=_as_float(cfg["tol"]),
        workers=int(cfg["workers"]),
    )
    slope = float("nan")
    if len(rows) >= 2:
        logd = np.log([r["D"] for r in rows])
        logs = np.log([r["supRatio"] for r in rows])
        slope = float(np.polyfit(logd, logs, 1)[0])
    stats = [r["statistic"] for r in rows]
    spread = max(stats) / min(stats)
    ok = (
        all(abs(r["rho"] - 1.0) <= RHO_TOL for r in rows)
        and all(PRODUCT_BAND[0] <= r["shiftedProduct"] <= PRODUCT_BAND[1] for r in rows)
        and all(RATIO_BAND[0] <= r["oneDimRatio"] <= RATIO_BAND[1] for r in rows)
        and spread <= STAT_SPREAD_MAX
        and (len(rows) < 2 or slope <= SLOPE_MAX)
    )
    summary = {
        "allPass": int(ok),
        "slope": slope,
        "statSpread": spread,
        "rows": rows,
    }
    cols = ["D", "rho", "lambda1", "supRatio", "statistic", "L", "gjError"]
    table = [[r[c] for c in cols] for r in rows]
    status = 1 if bool(cfg["checkBands"]) and not ok else 0
    return summary, cols, table, status


def _cmd_gj_compare(cfg):
    result = pipeline.gj_compare_run(
        _as_float_list(cfg["D"]),
        spacing=_as_float(cfg["spacing"]),
        tol=_as_float(cfg["tol"]),
        rect_error_budget=_as_float(cfg["rectErrorBudget"]),
    )
    all_ok = bool(result["rectPass"]) and all(r["pass"] for r in result["rows"])
    summary = dict(result)
    summary["allPass"] = int(all_ok)
    table = [["rectProfile", 8.0, result["rectError"], result["rectPass"]]]
    for r in result["rows"]:
        table.append(["coneRatio", r["D"], r["ratio"], r["pass"]])
    return summary, ["case", "D", "value", "pass"], table, 0 if all_ok else 1


_DISPATCH = {
    "bound": _cmd_bound,
    "eig1d": _cmd_eig1d,
    "verifyThm1": _cmd_verify_thm1,
    "rearrangeCheck": _cmd_rearrange_check,
    "constants": _cmd_constants,
    "domainSweep": _cmd_domain_sweep,
    "vdberg": _cmd_vdberg,
    "gjCompare": _cmd_gj_compare,
}


def _resolve_workers(value) -> int:
    if isinstance(value, (int, np.integer)) and int(value) > 0:
        return int(value)
    env = os.environ.get("SPECGAP_WORKERS", "")
    try:
        parsed = int(env)
        if parsed > 0:
            return parsed
    except ValueError:
        pass
    return os.cpu_count() or 1


def _write_outputs(prefix: str, payload: dict, header: Sequence[str], rows) -> None:
    directory = os.path.dirname(prefix)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(prefix + ".json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(prefix + ".csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def run(config: RunConfig) -> int:
    """Resolve the configuration, execute the command, write outputs."""
    if config.command not in DEFAULTS:
        print(f"input error: unknown command {config.command!r}", file=sys.stderr)
        return 2
    resolved = copy.deepcopy(DEFAULTS[config.command])
    resolved.setdefault("seed", 0)
    layers = []
    if config.input:
        try:
            with open(config.input) as fh:
                layers.append(json.load(fh))
        except json.JSONDecodeError as exc:
            print(
                f"input error: {config.input}: {exc.msg} "
                f"(line {exc.lineno}, column {exc.colno})",
                file=sys.stderr,
            )
            return 2
        except OSError as exc:
            print(f"input error: cannot read {config.input}: {exc}", file=sys.stderr)
            return 2
    layers.append(dict(config.overrides))
    allowed = set(resolved) | {"seed", "workers"}
    for layer in layers:
        if not isinstance(layer, dict):
            print("input error: config file must hold a JSON object", file=sys.stderr)
            return 2
        for key, value in layer.items():
            if key not in allowed:
                print(
                    f"input error: unknown config key {key!r} for {config.command}",
                    file=sys.stderr,
                )
                return 2
            resolved[key] = value
    resolved["workers"] = _resolve_workers(resolved.get("workers"))
    try:
        summary, header, rows, status = _DISPATCH[config.command](resolved)
    except (ParameterError, GeometryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    payload = {
        "command": config.command,
        "input": config.input,
        "output": config.output,
        "config": _plain(resolved),
        "summary": _plain(summary),
    }
    _write_outputs(config.output, payload, header, rows)
    return status


def _parse_scalar(raw: str):
    low = raw.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _parse_value(raw: str):
    if "," in raw:
        return [_parse_scalar(part.strip()) for part in raw.split(",") if part.strip()]
    return _parse_scalar(raw)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="specgap",
        description="Sublevel-set spectral bounds and thin convex domain checks.",
    )
    parser.add_argument("command", choices=sorted(DEFAULTS))
    parser.add_argument("--input", default=None, help="JSON config file")
    parser.add_argument("--out", default=None, help="output prefix for .json/.csv")
    parser.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config entry; repeatable",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    overrides: Dict[str, object] = {}
    for item in args.sets:
        if "=" not in item:
            print(f"input error: bad --set {item!r}, expected key=value", file=sys.stderr)
            return 2
        key, _, raw = item.partition("=")
        overrides[key.strip()] = _parse_value(raw.strip())
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.seed is not None:
        overrides["seed"] = args.seed
    out = args.out if args.out else args.command
    cfg = RunConfig(command=args.command, input=args.input, output=out, overrides=overrides)
    return run(cfg)
