"""Potentials on an interval, stored as uniform grids.

A grid holds samples V_0..V_{n+1} at the n+2 nodes x_i = a + i*dx with
dx = (b-a)/(n+1), endpoints included. `sample` clamps values above
DEFAULT_CAP, so every grid is finite even for model potentials with a pole.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from specgap.errors import ParameterError

DEFAULT_CAP = 1e12


@dataclass(frozen=True)
class PotentialSpec:
    """Closed-form description of a potential, used to build grids."""

    kind: str
    params: Sequence[float]
    interval: Tuple[float, float]


def _check_interval(a: float, b: float, n: int) -> None:
    """Require b > a and a spacing dx = (b-a)/(n+1) with 1/dx^2 finite and
    nonzero, as the discretized operator divides by dx^2."""
    if not b > a:
        raise ParameterError(f"interval must satisfy b > a, got [{a}, {b}]")
    dx2 = ((b - a) / (n + 1)) * ((b - a) / (n + 1))
    if not (0.0 < dx2 < np.inf and 1.0 / dx2 < np.inf):
        raise ParameterError(
            f"interval [{a}, {b}] with {n} interior nodes: 1/dx^2 must be finite and nonzero"
        )


@dataclass(frozen=True)
class PotentialGrid:
    a: float
    b: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or len(vals) < 5:
            raise ParameterError("grid needs at least 3 interior nodes (5 samples)")
        _check_interval(self.a, self.b, len(vals) - 2)
        if not np.all(np.isfinite(vals)):
            raise ParameterError("grid values must be finite")

    @property
    def n(self) -> int:
        """Number of interior nodes."""
        return len(self.values) - 2

    @property
    def dx(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    def nodes(self) -> np.ndarray:
        """All n+2 node coordinates, endpoints included."""
        return np.linspace(self.a, self.b, self.n + 2)


def _evaluate(spec: PotentialSpec, x: np.ndarray) -> np.ndarray:
    a, b = spec.interval
    kind = spec.kind
    p = list(spec.params or [])
    most = {"squareWell": 0, "harmonic": 1, "quartic": 1, "linearWell": 2}.get(kind, len(p))
    if len(p) > most:
        raise ParameterError(f"{kind} takes at most {most} parameters, got {len(p)}")
    if kind == "squareWell":
        return np.zeros_like(x)
    if kind == "linearWell":
        slope = p[0] if len(p) >= 1 else 1.0
        center = p[1] if len(p) >= 2 else 0.5 * (a + b)
        if slope <= 0:
            raise ParameterError("linearWell slope must be positive")
        return slope * np.abs(x - center)
    if kind in ("harmonic", "quartic"):
        center = p[0] if len(p) >= 1 else 0.5 * (a + b)
        return (x - center) ** (2 if kind == "harmonic" else 4)
    if kind == "coneModel":
        if len(p) != 1:
            raise ParameterError("coneModel takes exactly one parameter")
        D = float(p[0])
        if D <= 1:
            raise ParameterError(f"coneModel needs D > 1, got {D}")
        if a < 0 or b > D:
            raise ParameterError("coneModel grid must lie inside [0, D]")
        return D * D / (D - x) ** 2 - 1.0
    if kind == "samples":
        if len(p) < 2:
            raise ParameterError("samples kind needs at least two values")
        xs = np.linspace(a, b, len(p))
        return np.interp(x, xs, p)
    if kind == "piecewiseLinear":
        if len(p) < 4 or len(p) % 2 != 0:
            raise ParameterError("piecewiseLinear takes a flat knot list x0,y0,x1,y1,...")
        knots = np.asarray(p, dtype=float).reshape(-1, 2)
        xs, ys = knots[:, 0], knots[:, 1]
        if np.any(np.diff(xs) <= 0):
            raise ParameterError("piecewiseLinear knot abscissae must be strictly increasing")
        return np.interp(x, xs, ys)
    raise ParameterError(f"unknown potential kind {reprlib.repr(kind)}")


def sample(spec: PotentialSpec, n: int) -> PotentialGrid:
    """Evaluate a spec on the uniform grid with n interior nodes.

    Values above DEFAULT_CAP are clamped to it, the infinities of a pole (the
    cone model's) or of an overflow included, so neither raises a warning.
    """
    a, b = spec.interval
    if n < 3:
        raise ParameterError(f"need at least 3 interior nodes, got {n}")
    _check_interval(a, b, n)
    x = np.linspace(a, b, n + 2)
    with np.errstate(divide="ignore", over="ignore"):
        values = _evaluate(spec, x)
    return PotentialGrid(a=a, b=b, values=np.minimum(values, DEFAULT_CAP))

