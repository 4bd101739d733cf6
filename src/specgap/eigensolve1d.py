"""Smallest Dirichlet eigenpair of -d^2/dx^2 + V on a uniform grid.

The operator is the standard 3-point stencil, a symmetric tridiagonal matrix
over interior nodes. The pair comes from Noda's iteration (T. Noda, Numer.
Math. 17, 1971): shifted inverse iteration whose shift rises by the
Collatz-Wielandt lower bound of each step, so it converges quadratically
(L. Elsner, Linear Algebra Appl. 15, 1976) and never passes lambda1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dptsv

from specgap.errors import NumericError, ParameterError
from specgap.potential import PotentialGrid


@dataclass(frozen=True)
class Eigenpair1D:
    lambda1: float
    f: np.ndarray
    normL2: float
    residual: float


def smallest_eigenpair(grid: PotentialGrid) -> Eigenpair1D:
    """Ground eigenpair by shifted inverse iteration with a rising lower-bound shift.

    The matrix A has diagonal 2/dx^2 + V_i and off-diagonal -1/dx^2 over the
    interior nodes; the boundary nodes are dropped (Dirichlet).
    The shift starts at Weyl's bound min V + 4 sin^2(pi/(2n+2))/dx^2 and, while
    the solve x = (A - shift)^-1 v is positive, rises by min_i v_i/x_i, a lower
    bound on lambda1 - shift for the M-matrix A - shift; each bound is lowered
    by the rounding margin, so the shift stays below lambda1. A - shift is then
    positive definite: its LDL^T solve cannot hit a singular pivot, and it maps
    positive vectors to positive vectors, so the vector stays positive from the
    all-ones start. The loop stops once the residual is at most 1e-8 |lambda1|
    or the rounding margin; lambda1 is the Rayleigh quotient, and f is
    L2-normalized under the quadrature sum(f_i^2) * dx = 1.
    """
    n = grid.n
    dx = grid.dx
    diag = 2.0 / dx**2 + grid.values[1:-1]
    off = -1.0 / dx**2
    norm_a = float(np.max(np.abs(diag))) + 2.0 * abs(off)
    if not math.isfinite(norm_a * norm_a):  # the residual norm squares entries this large
        raise ParameterError(f"operator norm {norm_a:.3g} is too large: its square overflows")
    # refining the grid cannot push the residual below rounding in ||A||
    margin = 64.0 * np.finfo(float).eps * norm_a
    kinetic = 4.0 * math.sin(math.pi / (2 * n + 2)) ** 2 / dx**2  # lambda1 at V = 0
    shift = float(grid.values[1:-1].min()) + kinetic - margin  # Weyl's bound
    # the solve runs on (A - shift)/||A||, finite by the check above, so x
    # stays below 1/(64 eps) at any dx; LAPACK ptsv factors it as L D L^T
    e = np.full(n - 1, off / norm_a)
    v = np.ones(n) / math.sqrt(float(n))
    for _ in range(40):
        _, _, x, info = dptsv((diag - shift) / norm_a, e, v)
        if info:
            raise NumericError(f"A - {shift} is not positive definite: leading minor {info}")
        if x.min() > 0.0:
            shift += max(float(np.min(v / x)) * norm_a - margin, 0.0)
        v = x / np.linalg.norm(x)
        tv = diag * v
        tv[:-1] += off * v[1:]
        tv[1:] += off * v[:-1]
        lam = float(v @ tv)
        residual = float(np.linalg.norm(tv - lam * v))
        res_target = max(1e-8 * abs(lam), margin)
        if residual <= res_target:
            f = v / math.sqrt(float(np.sum(v * v)) * dx)
            norm = float(np.sum(f * f) * dx)
            return Eigenpair1D(lambda1=lam, f=f, normL2=norm, residual=residual)
    raise NumericError(
        "inverse iteration failed to converge: "
        f"n={n}, Rayleigh quotient={lam}, shift={shift}, last residual={residual:.3e}, "
        f"target={res_target:.3e}"
    )
