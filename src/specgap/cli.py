"""Command line front end.

Each subcommand resolves its configuration from built-in defaults, an
optional JSON file, and repeated --set overrides, runs the matching
computation, and writes two files: <prefix>.json with a summary plus
the fully resolved configuration, and <prefix>.csv with the row data.

COMMANDS is the one table of subcommands: each entry holds the defaults,
the runner and the CSV header. The runner is a `pipeline` function that
takes the command's config keys, each coerced by COERCE first; every
summary, row and named check is made there. This module resolves
configuration, does I/O, and sets allPass and the exit status from the checks.

Exit status: 0 on success, 1 when a check fails or the numerics break
down, 2 on bad input.
"""

import argparse
import copy
import json
import os
import reprlib
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import pipeline
from .errors import GeometryError, NumericError, ParameterError


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: Optional[str]
    output: str
    overrides: Dict[str, object] = field(default_factory=dict)


def _as_float(value) -> float:
    try:
        number = float(value)
        if isinstance(value, bool) or not np.isfinite(number):
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"expected a finite number, got {reprlib.repr(value)}") from None


def _as_int(value) -> int:
    try:
        if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"expected an integer, got {reprlib.repr(value)}") from None


# largest accepted sizes, checked before anything is allocated; each admits
# every command line in the README, the tests and the benchmark workloads;
# a constants search holds an array row per restart, and its 10 million
# evaluations take about 8 s and 120 MB
MAX_SIZE = {
    "n": 1_000_000, "knots": 10_000, "count": 100_000, "resolution": 4096, "budget": 10_000_000
}


def _size(key: str) -> Callable[[object], int]:
    def coerce(value) -> int:
        size = _as_int(value)
        if size > MAX_SIZE[key]:
            digits = len(str(size))  # a float() of a long integer overflows
            got = size if digits <= 20 else f"an integer of {digits} digits"
            raise ParameterError(f"{key} must be at most {MAX_SIZE[key]}, got {got}")
        return size

    return coerce


def _as_float_list(value) -> List[float]:
    if isinstance(value, (list, tuple)):
        return [_as_float(v) for v in value]
    if isinstance(value, (int, float, np.integer, np.floating)):
        return [_as_float(value)]
    raise ParameterError(f"expected a number or list of numbers, got {reprlib.repr(value)}")


def _as_str_list(value) -> List[str]:
    if isinstance(value, str):
        return [value]
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    raise ParameterError(f"expected a name or list of names, got {reprlib.repr(value)}")


def _interval(value) -> Tuple[float, float]:
    pair = _as_float_list(value)
    if len(pair) != 2:
        raise ParameterError(f"interval needs exactly two endpoints, got {reprlib.repr(value)}")
    return pair[0], pair[1]


def _budget(value) -> int:
    budget = _size("budget")(value)
    if budget < 0:
        raise ParameterError(f"expected a budget of at least 0, got {budget}")
    return budget


def _seed(value) -> int:
    seed = _as_int(value)
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    return seed


# every config key's coercion, applied before the runner is called
COERCE: Dict[str, Callable[[object], object]] = {
    **{key: _size(key) for key in MAX_SIZE},  # budget's entry below adds its >= 0 rule
    "kind": str,
    "params": lambda value: tuple(_as_float_list(value)),
    "interval": _interval,
    "tol": _as_float,
    "names": _as_str_list,
    "vmax": _as_float,
    "alpha": _as_float,
    "beta": _as_float,
    "gamma": _as_float,
    "budget": _budget,
    "seed": _seed,
    "families": _as_str_list,
    "D": _as_float_list,
    "spacing": _as_float,
}


class Command(NamedTuple):
    """A subcommand: its default config, its runner and its CSV header.

    The runner is called with the coerced config as keyword arguments, one
    per default key, and returns (summary, rows). rows=None stands for the
    header's columns of summary["rows"]; a failed check in summary["checks"] exits 1.
    """

    defaults: Dict[str, object]
    runner: Callable[..., Tuple[dict, Optional[Iterable]]]
    header: str


_GRID = {"kind": "squareWell", "params": [], "interval": [0.0, 1.0], "n": 1000}

COMMANDS: Dict[str, Command] = {
    "bound": Command(_GRID, pipeline.bound, "y,width,functional"),
    "eig1d": Command(_GRID, pipeline.eig1d, "x,f"),
    "verifyThm1": Command(
        {"names": list(pipeline.THM1_NAMES)},
        pipeline.thm1_check,
        "potential,fStar,lambda1,lower,upper,pass",
    ),
    "rearrangeCheck": Command(
        {"count": 200, "knots": 8, "vmax": 50.0, "interval": [0.0, 1.0], "n": 800, "seed": 0},
        pipeline.rearrange_random_suite,
        "seedIndex,hlLeft,hlRight,psLeft,psRight,lambdaOriginal,lambdaRearranged,slack,pass",
    ),
    "constants": Command(
        {"alpha": 0.99, "beta": 0.007, "gamma": 14.1327, "budget": 0, "seed": 0},
        pipeline.constant_triple,
        "alpha,beta,gamma,objective",
    ),
    "domainSweep": Command(
        {
            "families": ["cone", "stadium", "isoTriangle"],
            "D": [16.0, 64.0, 256.0],
            "resolution": 256,
        },
        pipeline.domain_sweep,
        "family,D,inradius,diameter,minWidth,L,lambda1,lower,upper,widthRatio,shiftedProduct,pass",
    ),
    "vdberg": Command(
        {"D": [8.0, 16.0, 32.0, 64.0], "spacing": 1.0 / 64.0, "tol": 1e-6},
        pipeline.vdberg,
        "D,rho,lambda1,supRatio,statistic,L,gjError",
    ),
    "gjCompare": Command(
        {"D": [16.0, 64.0, 256.0], "spacing": 1.0 / 64.0, "tol": 1e-7},
        pipeline.gj_compare_run,
        "case,D,value,pass",
    ),
}


def _write_outputs(prefix: str, payload: dict, header: str, rows) -> None:
    with open(prefix + ".json", "w") as fh:
        # numpy scalars: np.float64 subclasses float, the rest go through .item()
        json.dump(payload, fh, indent=2, sort_keys=True, default=lambda o: o.item())
        fh.write("\n")
    with open(prefix + ".csv", "w") as fh:
        fh.write(header + "\n")
        line = None  # one format per file, from its first row: text verbatim, else %.17g
        for row in rows:
            if line is None:
                line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in row) + "\n"
            fh.write(line % tuple(row))


def _resolve(config: RunConfig) -> Dict[str, object]:
    """Defaults, then the --input JSON object, then the overrides."""
    if config.command not in COMMANDS:
        raise ParameterError(f"unknown command {reprlib.repr(config.command)}")
    resolved = copy.deepcopy(COMMANDS[config.command].defaults)
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
                raise ParameterError(f"unknown config key {reprlib.repr(key)} for {config.command}")
        resolved.update(layer)
    return resolved


def run(config: RunConfig) -> int:
    """Resolve the configuration, make the output directory, execute the
    command, set allPass from its checks, write outputs. An output that
    cannot be written is bad input."""
    try:
        resolved = _resolve(config)
        command = COMMANDS[config.command]
        arguments = {key: COERCE[key](value) for key, value in resolved.items()}
        try:
            os.makedirs(os.path.dirname(config.output) or os.curdir, exist_ok=True)
        except OSError as exc:
            raise ParameterError(f"cannot write {config.output}: {exc}") from None
        summary, rows = command.runner(**arguments)
    except (ParameterError, GeometryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    summary["allPass"] = int(all(check["pass"] for check in summary["checks"]))
    if rows is None:
        columns = command.header.split(",")
        rows = (tuple(r[c] for c in columns) for r in summary["rows"])
    payload = {
        "command": config.command,
        "input": config.input,
        "output": config.output,
        "config": resolved,
        "summary": summary,
    }
    try:
        _write_outputs(config.output, payload, command.header, rows)
    except OSError as exc:
        print(f"input error: cannot write {config.output}: {exc}", file=sys.stderr)
        return 2
    return 1 - summary["allPass"]


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
            print(
                f"input error: bad --set {reprlib.repr(item)}, expected key=value", file=sys.stderr
            )
            return 2
        key, _, raw = item.partition("=")
        overrides[key.strip()] = _parse_value(raw.strip())
    if args.seed is not None:
        overrides["seed"] = args.seed
    out = args.out if args.out else args.command
    cfg = RunConfig(command=args.command, input=args.input, output=out, overrides=overrides)
    return run(cfg)
