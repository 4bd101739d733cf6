"""Command line front end.

Each subcommand resolves its configuration from built-in defaults, an
optional JSON file, and repeated --set overrides, runs the matching
computation, and writes two files: <prefix>.json with a summary plus
the fully resolved configuration, and <prefix>.csv with the row data.

COMMANDS is the one table of subcommands: each entry holds the defaults,
the runner and the CSV header. The runner is a `pipeline` function that
takes the command's config keys, each coerced and range-checked by COERCE
first, so it only computes: every summary, row and named check is made
there. This module resolves configuration, does I/O, and sets allPass and
the exit status from the checks.

Exit status: 0 on success, 1 when a check fails or the numerics break
down, 2 on bad input.
"""

import argparse
import copy
import json
import os
import reprlib
import sys
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import pipeline
from .errors import GeometryError, NumericError, ParameterError


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


# each integer key's (minimum, maximum), None where open, checked before
# anything is allocated; a range the library checks on its own argument
# stays open here: sample's n >= 3, normalize_gj's resolution >= 1, and the
# float key tol, which smallest_eigenpair_2d judges against the grid's floor; the
# maxima admit every command line in the README, the tests and the benchmark
# workloads, and a 10 million budget search takes about 8 s and 120 MB
INT_RANGE: Dict[str, Tuple[Optional[int], Optional[int]]] = {
    "n": (None, 1_000_000), "knots": (2, 10_000), "count": (1, 100_000),
    "resolution": (None, 4096), "budget": (0, 10_000_000), "seed": (0, None),
}


def _bounded_int(key: str) -> Callable[[object], int]:
    lo, hi = INT_RANGE[key]

    def coerce(value) -> int:
        number = _as_int(value)
        if lo is not None and number < lo:
            rule = f"at least {lo}"
        elif hi is not None and number > hi:
            rule = f"at most {hi}"
        else:
            return number
        digits = len(str(abs(number)))  # a float() of a long integer overflows
        got = number if digits <= 20 else f"an integer of {digits} digits"
        raise ParameterError(f"{key} must be {rule}, got {got}")

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


def _nonempty(key: str, values: list) -> list:
    if not values:
        raise ParameterError(f"{key} needs at least one value")
    return values


def _names(value) -> List[str]:
    """verifyThm1's suite members, each once at its first place."""
    names = _nonempty("names", list(dict.fromkeys(_as_str_list(value))))
    unknown = [name for name in names if name not in pipeline.THM1]
    if unknown:
        have = sorted(pipeline.THM1)
        raise ParameterError(f"unknown suite members {reprlib.repr(unknown)}; have {have}")
    return names


def _interval(value) -> Tuple[float, float]:
    pair = _as_float_list(value)
    if len(pair) != 2:
        raise ParameterError(f"interval needs exactly two endpoints, got {reprlib.repr(value)}")
    return pair[0], pair[1]


def _vmax(value) -> float:
    vmax = _as_float(value)
    if vmax <= 0.0:
        raise ParameterError(f"vmax must be positive, got {vmax:g}")
    return vmax


# every config key's coercion, applied before the runner is called: the one
# place that decides which values a key accepts
COERCE: Dict[str, Callable[[object], object]] = {
    **{key: _bounded_int(key) for key in INT_RANGE},
    "kind": str,
    "params": lambda value: tuple(_as_float_list(value)),
    "interval": _interval,
    "tol": _as_float,
    "names": _names,
    "vmax": _vmax,
    "alpha": _as_float,
    "beta": _as_float,
    "gamma": _as_float,
    "families": lambda value: _nonempty("families", sorted(set(_as_str_list(value)))),
    "D": lambda value: _nonempty("D", sorted(set(_as_float_list(value)))),
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
        {"names": list(pipeline.THM1)},
        pipeline.verify_thm1,
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


def _resolve(
    command: str, input_path: Optional[str], overrides: Dict[str, object]
) -> Dict[str, object]:
    """Defaults, then the --input JSON object, then the overrides."""
    if command not in COMMANDS:
        raise ParameterError(f"unknown command {reprlib.repr(command)}")
    resolved = copy.deepcopy(COMMANDS[command].defaults)
    layers = [dict(overrides)]
    if input_path:
        try:
            with open(input_path) as fh:
                layers.insert(0, json.load(fh))
        except json.JSONDecodeError as exc:
            raise ParameterError(
                f"{input_path}: {exc.msg} (line {exc.lineno}, column {exc.colno})"
            ) from None
        except ValueError as exc:  # an integer past Python's digit limit, or bad UTF-8
            raise ParameterError(f"{input_path}: {exc}") from None
        except OSError as exc:
            raise ParameterError(f"cannot read {input_path}: {exc}") from None
    for layer in layers:
        if not isinstance(layer, dict):
            raise ParameterError("config file must hold a JSON object")
        for key in layer:
            if key not in resolved:
                raise ParameterError(f"unknown config key {reprlib.repr(key)} for {command}")
        resolved.update(layer)
    return resolved


def run(
    command: str, input_path: Optional[str], output: str, overrides: Dict[str, object]
) -> int:
    """Resolve the configuration, make the output directory, execute the
    command, set allPass from its checks, write <output>.json and .csv.
    An output that cannot be written is bad input."""
    try:
        resolved = _resolve(command, input_path, overrides)
        entry = COMMANDS[command]
        arguments = {key: COERCE[key](value) for key, value in resolved.items()}
        try:
            os.makedirs(os.path.dirname(output) or os.curdir, exist_ok=True)
        except OSError as exc:
            raise ParameterError(f"cannot write {output}: {exc}") from None
        summary, rows = entry.runner(**arguments)
    except (ParameterError, GeometryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    summary["allPass"] = int(all(check["pass"] for check in summary["checks"]))
    if rows is None:
        columns = entry.header.split(",")
        rows = (tuple(r[c] for c in columns) for r in summary["rows"])
    payload = {
        "command": command,
        "input": input_path,
        "output": output,
        "config": resolved,
        "summary": summary,
    }
    try:
        _write_outputs(output, payload, entry.header, rows)
    except OSError as exc:
        print(f"input error: cannot write {output}: {exc}", file=sys.stderr)
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
    return run(args.command, args.input, args.out or args.command, overrides)
