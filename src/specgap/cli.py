"""Command line front end.

Each subcommand resolves its configuration from built-in defaults, an
optional JSON file, and repeated --set overrides, runs the matching
computation, and writes two files: <prefix>.json with a summary plus
the fully resolved configuration, and <prefix>.csv with the row data.

COMMANDS is the one table of subcommands: each entry holds the defaults,
the runner and the CSV header. Every pass band is a fixed constant in
`pipeline`, never a config key; this module only resolves configuration
and does I/O.

Exit status: 0 on success, 1 when a scientific check fails or the
numerics break down, 2 on bad input.
"""

import argparse
import copy
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import pipeline
from .constants import ConstantTriple, is_feasible, objective, search
from .eigensolve1d import discretize, smallest_eigenpair
from .errors import GeometryError, NumericError, ParameterError
from .potential import PotentialSpec, sample
from .sublevel import minimize_functional, width_profile


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: Optional[str]
    output: str
    overrides: Dict[str, object] = field(default_factory=dict)


def _fmt(value) -> str:
    return value if isinstance(value, str) else format(value, ".17g")


def _as_float(value) -> float:
    try:
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"expected a number, got {value!r}") from None


def _as_int(value) -> int:
    try:
        if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"expected an integer, got {value!r}") from None


# largest accepted sizes, checked before anything is allocated; each admits
# every command line in the README, the tests and the benchmark workloads
MAX_SIZE = {"n": 1_000_000, "knots": 10_000, "count": 100_000, "resolution": 4096}


def _size(cfg: Dict[str, object], key: str) -> int:
    value = _as_int(cfg[key])
    if value > MAX_SIZE[key]:
        raise ParameterError(f"{key} must be at most {MAX_SIZE[key]}, got {value}")
    return value


def _as_float_list(value) -> List[float]:
    if isinstance(value, (list, tuple)):
        return [_as_float(v) for v in value]
    if isinstance(value, (int, float, np.integer, np.floating)):
        return [_as_float(value)]
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
    return sample(spec, _size(cfg, "n"))


def _bound(cfg):
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
    return summary, zip(levels.tolist(), widths.tolist(), functional.tolist()), True


def _eig1d(cfg):
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
    return summary, zip(x.tolist(), pair.f.tolist()), True


def _all_pass(rows):
    ok = all(r["pass"] for r in rows)
    return {"allPass": int(ok), "rows": rows}, None, ok


def _verify_thm1(cfg):
    suite = pipeline.thm1_suite(_as_str_list(cfg["names"]))
    return _all_pass(pipeline.verify_thm1(suite))


def _rearrange_check(cfg):
    rows = pipeline.rearrange_random_suite(
        count=_size(cfg, "count"),
        seed=cfg["seed"],
        knots=_size(cfg, "knots"),
        vmax=_as_float(cfg["vmax"]),
        interval=_interval(cfg["interval"]),
        n=_size(cfg, "n"),
    )
    failures = sum(1 for r in rows if not r["pass"])
    return {"count": len(rows), "failures": failures, "rows": rows}, None, failures == 0


def _constants(cfg):
    budget = _as_int(cfg["budget"] or 0)
    if budget > 0:
        triple, value = search(budget, cfg["seed"])
        summary = {"mode": "search", "objective": value, "feasible": 1, "budget": budget}
    else:
        triple = ConstantTriple(
            alpha=_as_float(cfg["alpha"]),
            beta=_as_float(cfg["beta"]),
            gamma=_as_float(cfg["gamma"]),
        )
        feasible = is_feasible(triple)
        value = objective(triple) if feasible else None
        summary = {"mode": "evaluate", "objective": value, "feasible": int(feasible)}
    summary.update(alpha=triple.alpha, beta=triple.beta, gamma=triple.gamma)
    row = [triple.alpha, triple.beta, triple.gamma, float("nan") if value is None else value]
    return summary, [row], bool(summary["feasible"])


def _domain_sweep(cfg):
    return _all_pass(
        pipeline.domain_sweep(
            _as_str_list(cfg["families"]),
            _as_float_list(cfg["D"]),
            resolution=_size(cfg, "resolution"),
        )
    )


def _vdberg(cfg):
    rows = pipeline.vdberg_sweep(
        _as_float_list(cfg["D"]), spacing=_as_float(cfg["spacing"]), tol=_as_float(cfg["tol"])
    )
    verdict = pipeline.vdberg_verdict(rows)
    return dict(verdict, rows=rows), None, verdict["allPass"]


def _gj_compare(cfg):
    result = pipeline.gj_compare_run(
        _as_float_list(cfg["D"]),
        spacing=_as_float(cfg["spacing"]),
        tol=_as_float(cfg["tol"]),
    )
    rows = [["rectProfile", 8.0, result["rectError"], result["rectPass"]]]
    rows += [["coneRatio", r["D"], r["ratio"], r["pass"]] for r in result["rows"]]
    return result, rows, result["allPass"]


class Command(NamedTuple):
    """A subcommand: its default config, its runner and its CSV header.

    The runner takes the resolved config and returns (summary, rows, ok).
    rows=None stands for the header's columns of summary["rows"]; ok=False
    exits 1. Every default key is read by the runner, and none is a band.
    """

    defaults: Dict[str, object]
    runner: Callable[[Dict[str, object]], Tuple[dict, Optional[Iterable], bool]]
    header: str


_GRID = {"kind": "squareWell", "params": [], "interval": [0.0, 1.0], "n": 1000}

COMMANDS: Dict[str, Command] = {
    "bound": Command(_GRID, _bound, "y,width,functional"),
    "eig1d": Command(dict(_GRID, tol=1e-10), _eig1d, "x,f"),
    "verifyThm1": Command(
        {"names": list(pipeline.THM1_NAMES)},
        _verify_thm1,
        "potential,fStar,lambda1,lower,upper,pass",
    ),
    "rearrangeCheck": Command(
        {"count": 200, "knots": 8, "vmax": 50.0, "interval": [0.0, 1.0], "n": 800},
        _rearrange_check,
        "seedIndex,hlLeft,hlRight,psLeft,psRight,lambdaOriginal,lambdaRearranged,slack,pass",
    ),
    "constants": Command(
        {"alpha": 0.99, "beta": 0.007, "gamma": 14.1327, "budget": 0},
        _constants,
        "alpha,beta,gamma,objective",
    ),
    "domainSweep": Command(
        {
            "families": ["cone", "stadium", "isoTriangle"],
            "D": [16.0, 64.0, 256.0],
            "resolution": 256,
        },
        _domain_sweep,
        "family,D,inradius,diameter,minWidth,L,lambda1,lower,upper,widthRatio,shiftedProduct,pass",
    ),
    "vdberg": Command(
        {"D": [8.0, 16.0, 32.0, 64.0], "spacing": 1.0 / 64.0, "tol": 1e-6},
        _vdberg,
        "D,rho,lambda1,supRatio,statistic,L,gjError",
    ),
    "gjCompare": Command(
        {"D": [16.0, 64.0, 256.0], "spacing": 1.0 / 64.0, "tol": 1e-7},
        _gj_compare,
        "case,D,value,pass",
    ),
}


def _write_outputs(prefix: str, payload: dict, header: str, rows) -> None:
    directory = os.path.dirname(prefix)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(prefix + ".json", "w") as fh:
        # numpy scalars: np.float64 subclasses float, the rest go through .item()
        json.dump(payload, fh, indent=2, sort_keys=True, default=lambda o: o.item())
        fh.write("\n")
    with open(prefix + ".csv", "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _resolve(config: RunConfig) -> Dict[str, object]:
    """Defaults, then the --input JSON object, then the overrides; the seed
    is resolved here for every command."""
    if config.command not in COMMANDS:
        raise ParameterError(f"unknown command {config.command!r}")
    resolved = copy.deepcopy(COMMANDS[config.command].defaults)
    resolved["seed"] = 0
    layers = [dict(config.overrides)]
    if config.input:
        try:
            with open(config.input) as fh:
                layers.insert(0, json.load(fh))
        except json.JSONDecodeError as exc:
            raise ParameterError(
                f"{config.input}: {exc.msg} (line {exc.lineno}, column {exc.colno})"
            ) from None
        except ValueError as exc:  # an integer past Python's digit limit, or bad UTF-8
            raise ParameterError(f"{config.input}: {exc}") from None
        except OSError as exc:
            raise ParameterError(f"cannot read {config.input}: {exc}") from None
    for layer in layers:
        if not isinstance(layer, dict):
            raise ParameterError("config file must hold a JSON object")
        for key in layer:
            if key not in resolved:
                raise ParameterError(f"unknown config key {key!r} for {config.command}")
        resolved.update(layer)
    resolved["seed"] = _as_int(resolved["seed"])
    if resolved["seed"] < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {resolved['seed']}")
    return resolved


def run(config: RunConfig) -> int:
    """Resolve the configuration, execute the command, write outputs."""
    try:
        resolved = _resolve(config)
        command = COMMANDS[config.command]
        summary, rows, ok = command.runner(resolved)
    except (ParameterError, GeometryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    if rows is None:
        rows = ([r[c] for c in command.header.split(",")] for r in summary["rows"])
    payload = {
        "command": config.command,
        "input": config.input,
        "output": config.output,
        "config": resolved,
        "summary": summary,
    }
    _write_outputs(config.output, payload, command.header, rows)
    return 0 if ok else 1


def _parse_scalar(raw: str):
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
    parser.add_argument("command", choices=sorted(COMMANDS))
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
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    overrides: Dict[str, object] = {}
    for item in args.sets:
        if "=" not in item:
            print(f"input error: bad --set {item!r}, expected key=value", file=sys.stderr)
            return 2
        key, _, raw = item.partition("=")
        overrides[key.strip()] = _parse_value(raw.strip())
    if args.seed is not None:
        overrides["seed"] = args.seed
    out = args.out if args.out else args.command
    cfg = RunConfig(command=args.command, input=args.input, output=out, overrides=overrides)
    return run(cfg)
