"""Smallest Dirichlet eigenpair of -d^2/dx^2 + V on a uniform grid.

The operator is the standard 3-point stencil, a symmetric tridiagonal matrix
over interior nodes. The eigenvalue comes from LAPACK bisection (dstebz).
The eigenvector follows from inverse iteration at a shift just below it,
where the shifted matrix is positive definite.

Also here: Rayleigh quotients, the sine test function that witnesses the
upper bound pi^2/w(y)^2 + y, the sup-norm inequality check, and the shortest
interval carrying a given fraction of the L^2 mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, solveh_banded

from specgap.errors import NumericError, ParameterError
from specgap.potential import PotentialGrid, min_value
from specgap.sublevel import is_interval_sublevel

_PI2 = math.pi**2


@dataclass(frozen=True)
class TridiagonalOperator:
    diag: np.ndarray
    off: float
    dx: float

    @property
    def n(self) -> int:
        return len(self.diag)


@dataclass(frozen=True)
class Eigenpair1D:
    lambda1: float
    f: np.ndarray
    normL2: float
    residual: float


def discretize(grid: PotentialGrid) -> TridiagonalOperator:
    """3-point stencil with Dirichlet conditions: boundary nodes dropped."""
    dx = grid.dx
    diag = 2.0 / dx**2 + grid.values[1:-1]
    return TridiagonalOperator(diag=diag, off=-1.0 / dx**2, dx=dx)


def _apply(op: TridiagonalOperator, v: np.ndarray) -> np.ndarray:
    out = op.diag * v
    out[:-1] += op.off * v[1:]
    out[1:] += op.off * v[:-1]
    return out


def smallest_eigenpair(op: TridiagonalOperator, tol: float = 1e-10) -> Eigenpair1D:
    """Ground eigenpair: LAPACK-bisected eigenvalue plus inverse-iteration vector.

    The shift sits below lambda1, so A - shift is positive definite: its
    LDL^T solve cannot hit a singular pivot, and it maps positive vectors to
    positive vectors, so the vector stays positive from the all-ones start.
    It is L2-normalized under the quadrature sum(f_i^2) * dx = 1.
    """
    if not 0 < tol < 1:
        raise ParameterError(f"tol must lie in (0, 1), got {tol}")
    n = op.n
    eps = np.finfo(float).eps
    abstol = tol * max(1.0, abs(float(op.diag.min()) - 2.0 * abs(op.off)))
    try:
        w = eigvalsh_tridiagonal(
            op.diag, np.full(n - 1, op.off), select="i", select_range=(0, 0),
            lapack_driver="stebz", tol=abstol,
        )[0]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"bisection for the lowest eigenvalue failed: {exc}") from exc
    # refining the grid cannot push the residual below rounding in ||A||
    norm_a = float(np.max(np.abs(op.diag))) + 2.0 * abs(op.off)
    shift = w - max(2.0 * abstol, 64.0 * eps * norm_a)
    res_target = max(1e-8 * max(1.0, abs(w)), 64.0 * eps * norm_a)
    ab = np.zeros((2, n))
    ab[0, 1:] = op.off
    ab[1, :] = op.diag - shift
    v = np.ones(n) / math.sqrt(float(n))
    for _ in range(40):
        try:
            x = solveh_banded(ab, v)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"A - {shift} is not positive definite: {exc}") from exc
        v = x / np.linalg.norm(x)
        tv = _apply(op, v)
        lam = float(v @ tv)
        residual = float(np.linalg.norm(tv - lam * v))
        if residual <= res_target:
            f = v / math.sqrt(float(np.sum(v * v)) * op.dx)
            norm = float(np.sum(f * f) * op.dx)
            return Eigenpair1D(lambda1=lam, f=f, normL2=norm, residual=residual)
    raise NumericError(
        "inverse iteration failed to converge: "
        f"n={n}, eigenvalue={w}, shift={shift}, last residual={residual:.3e}, "
        f"target={res_target:.3e}"
    )


def rayleigh_quotient(op: TridiagonalOperator, f: np.ndarray) -> float:
    """(sum of squared forward differences + sum V f^2) / sum f^2.

    Boundary values are treated as zero on both sides.
    """
    f = np.asarray(f, dtype=float)
    den = float(np.sum(f * f))
    if den == 0.0:
        raise ParameterError("Rayleigh quotient of the zero vector")
    padded = np.concatenate(([0.0], f, [0.0]))
    grad = np.diff(padded) / op.dx
    V = op.diag - 2.0 / op.dx**2
    num = float(np.sum(grad * grad)) + float(np.sum(V * f * f))
    return num / den


def sine_testfunction_bound(grid: PotentialGrid, y: float) -> float:
    """Rayleigh quotient of a sine bump supported on the sublevel set at y.

    The sublevel set must be a single nonempty interval of interior nodes.
    The returned value never exceeds pi^2/w(y)^2 + y because the discrete
    sine energy on a window of length W is (2/dx^2)(1 - cos(pi dx / W)),
    which is at most (pi/W)^2, and the potential is at most y on the window.
    """
    if not is_interval_sublevel(grid, y):
        raise ParameterError(f"sublevel set at y={y} is empty or not an interval")
    inside = np.flatnonzero(grid.values[1:-1] <= y)
    i0, i1 = int(inside[0]), int(inside[-1])
    dx = grid.dx
    window = (i1 - i0 + 2) * dx
    xs = grid.nodes()[1:-1]
    x_left = grid.a + i0 * dx
    f = np.zeros(grid.n)
    f[i0 : i1 + 1] = np.sin(math.pi * (xs[i0 : i1 + 1] - x_left) / window)
    return rayleigh_quotient(discretize(grid), f)


def check_linfty_bound(
    pair: Eigenpair1D, grid: PotentialGrid
) -> Tuple[float, float, bool]:
    """Compare the ground state's sup norm against (2 lambda1)^(1/4).

    Valid for nonnegative potentials only. The slack term absorbs the
    O(dx) difference between grid maxima and the continuum sup.
    """
    if min_value(grid) < 0:
        raise ParameterError("sup-norm bound assumes a nonnegative potential")
    ratio = float(np.max(np.abs(pair.f))) / math.sqrt(pair.normL2)
    bound = (2.0 * pair.lambda1) ** 0.25
    slack = 0.01 + 2.0 * grid.dx
    return ratio, bound, bool(ratio <= bound * (1.0 + slack))


def shortest_mass_interval(
    f: np.ndarray, dx: float, alpha: float
) -> Tuple[float, int]:
    """Shortest window of consecutive nodes holding an alpha fraction of
    the squared mass; ties resolve to the leftmost window.

    Returns (length in x units, start index).
    """
    f = np.asarray(f, dtype=float)
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0,1), got {alpha}")
    m = f * f * dx
    total = float(np.sum(m))
    if total == 0.0:
        raise ParameterError("mass interval of the zero vector")
    need = alpha * total * (1.0 - 1e-12)
    prefix = np.concatenate(([0.0], np.cumsum(m)))
    ends = np.searchsorted(prefix, prefix[:-1] + need, side="left")
    lengths = ends - np.arange(len(m))
    valid = ends <= len(m)
    if not np.any(valid):
        raise ParameterError("no window reaches the requested mass fraction")
    lengths = np.where(valid, lengths, len(m) + 1)
    start = int(np.argmin(lengths))
    k = int(lengths[start])
    return k * dx, start
