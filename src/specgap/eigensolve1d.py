"""Smallest Dirichlet eigenpair of -d^2/dx^2 + V on a uniform grid.

The operator is the standard 3-point stencil, a symmetric tridiagonal matrix
over interior nodes. The eigenvalue comes from LAPACK bisection (dstebz).
The eigenvector follows from inverse iteration at a shift just below it,
where the shifted matrix is positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, solveh_banded

from specgap.errors import NumericError, ParameterError
from specgap.potential import PotentialGrid

# bisection stop relative to max(1, |Gershgorin lower bound|); it sets the
# shift, while lambda1's accuracy comes from the residual target
_TOL = 1e-10


@dataclass(frozen=True)
class Eigenpair1D:
    lambda1: float
    f: np.ndarray
    normL2: float
    residual: float


def smallest_eigenpair(grid: PotentialGrid) -> Eigenpair1D:
    """Ground eigenpair: LAPACK-bisected eigenvalue plus inverse-iteration vector.

    The matrix has diagonal 2/dx^2 + V_i and off-diagonal -1/dx^2 over the
    interior nodes; the boundary nodes are dropped (Dirichlet).
    The shift sits below lambda1, so A - shift is positive definite: its
    LDL^T solve cannot hit a singular pivot, and it maps positive vectors to
    positive vectors, so the vector stays positive from the all-ones start.
    It is L2-normalized under the quadrature sum(f_i^2) * dx = 1.
    """
    n = grid.n
    dx = grid.dx
    diag = 2.0 / dx**2 + grid.values[1:-1]
    off = -1.0 / dx**2
    norm_a = float(np.max(np.abs(diag))) + 2.0 * abs(off)
    if not math.isfinite(norm_a * norm_a):  # LAPACK's bisection and LDL^T square entries
        raise ParameterError(f"operator norm {norm_a:.3g} is too large: its square overflows")
    eps = np.finfo(float).eps
    abstol = _TOL * max(1.0, abs(float(diag.min()) - 2.0 * abs(off)))
    try:
        w = eigvalsh_tridiagonal(
            diag, np.full(n - 1, off), select="i", select_range=(0, 0),
            lapack_driver="stebz", tol=abstol,
        )[0]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"bisection for the lowest eigenvalue failed: {exc}") from exc
    # refining the grid cannot push the residual below rounding in ||A||
    shift = w - max(2.0 * abstol, 64.0 * eps * norm_a)
    res_target = max(1e-8 * max(1.0, abs(w)), 64.0 * eps * norm_a)
    ab = np.zeros((2, n))
    ab[0, 1:] = off
    ab[1, :] = diag - shift
    v = np.ones(n) / math.sqrt(float(n))
    for _ in range(40):
        try:
            x = solveh_banded(ab, v)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"A - {shift} is not positive definite: {exc}") from exc
        v = x / np.linalg.norm(x)
        tv = diag * v
        tv[:-1] += off * v[1:]
        tv[1:] += off * v[:-1]
        lam = float(v @ tv)
        residual = float(np.linalg.norm(tv - lam * v))
        if residual <= res_target:
            f = v / math.sqrt(float(np.sum(v * v)) * dx)
            norm = float(np.sum(f * f) * dx)
            return Eigenpair1D(lambda1=lam, f=f, normL2=norm, residual=residual)
    raise NumericError(
        "inverse iteration failed to converge: "
        f"n={n}, eigenvalue={w}, shift={shift}, last residual={residual:.3e}, "
        f"target={res_target:.3e}"
    )

