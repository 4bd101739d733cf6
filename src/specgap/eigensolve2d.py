"""Masked-grid Dirichlet Laplacian ground states and derived diagnostics.

Domains are rasterized onto uniform grid nodes; nodes strictly inside the
polygon are active and all outside neighbors are held at zero.  The smallest
eigenpair of the matrix-free five-point stencil on active cells comes from
LOBPCG (Knyazev 2001) preconditioned by the exact inverse of the bounding
box's Dirichlet Laplacian, applied with type-I sine transforms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.fft import dstn, idstn, next_fast_len
from scipy.sparse.linalg import LinearOperator, lobpcg

from .convexdomain import ConvexPolygon, HeightFunction, inradius, localization_scale, longest_run
from .eigensolve1d import Eigenpair1D
from .errors import GeometryError, NumericError, ParameterError

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


@dataclass(frozen=True)
class MaskedGrid:
    """Uniform node grid over a polygon's bounding box with an interior mask.

    mask[i, j] flags the node at origin + (i, j) * spacing; indexing is
    x-major so CSV exports iterate rows in (i, j) order.
    """

    spacing: float
    origin: np.ndarray
    mask: np.ndarray
    activeCount: int

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=float)
        mask = np.asarray(self.mask)
        if not (math.isfinite(self.spacing) and self.spacing > 0.0):
            raise ParameterError("grid spacing must be positive and finite")
        if origin.shape != (2,) or not np.all(np.isfinite(origin)):
            raise ParameterError("grid origin must be a finite 2D point")
        if mask.ndim != 2 or mask.dtype != np.bool_:
            raise ParameterError("mask must be a 2D boolean array")
        count = int(mask.sum())
        if self.activeCount != count or count < 1:
            raise ParameterError("activeCount must match a nonempty mask")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "mask", mask)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        i, j = np.nonzero(self.mask)
        return self.origin[0] + i * self.spacing, self.origin[1] + j * self.spacing


@dataclass(frozen=True)
class Eigenpair2D:
    """Ground state over active cells, L2-normalized with weight spacing^2."""

    lambda1: float
    u: np.ndarray
    residual: float
    grid: MaskedGrid


def rasterize(poly: ConvexPolygon, spacing: float) -> MaskedGrid:
    """Mark grid nodes strictly inside the polygon.

    Spacing coarser than a quarter inradius leaves too few cells across the
    thin direction for the stencil to see the domain shape and is rejected.
    """
    if not (isinstance(spacing, (int, float)) and math.isfinite(spacing) and spacing > 0):
        raise ParameterError("spacing must be positive and finite")
    rho = inradius(poly)
    if spacing > 0.25 * rho * (1.0 + 1e-6):
        raise ParameterError(
            f"spacing {spacing:g} too coarse for inradius {rho:g}; need <= inradius/4"
        )
    v = poly.vertices
    xmin, ymin = v.min(axis=0)
    xmax, ymax = v.max(axis=0)
    nx = int(math.ceil((xmax - xmin) / spacing - 1e-9)) + 1
    ny = int(math.ceil((ymax - ymin) / spacing - 1e-9)) + 1
    x = xmin + spacing * np.arange(nx)
    y = ymin + spacing * np.arange(ny)
    inside = np.ones((nx, ny), dtype=bool)
    gx = x[:, None]
    gy = y[None, :]
    for k in range(len(v)):
        px, py = v[k]
        qx, qy = v[(k + 1) % len(v)]
        inside &= (qx - px) * (gy - py) - (qy - py) * (gx - px) > 0.0
    count = int(inside.sum())
    if count == 0:
        raise GeometryError("rasterization produced no interior nodes")
    _, parts = ndimage.label(inside, structure=_FOUR_CONNECTED)
    if parts != 1:
        raise GeometryError(f"interior nodes split into {parts} components")
    return MaskedGrid(
        spacing=float(spacing),
        origin=np.array([xmin, ymin]),
        mask=inside,
        activeCount=count,
    )


def _dirichlet_symbol(n: int, h2: float) -> np.ndarray:
    """Eigenvalues of the three-point Dirichlet stencil on n nodes, ascending."""
    return (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))) / h2


def smallest_eigenpair_2d(grid: MaskedGrid, tol: float = 1e-6, max_outer: int = 2000) -> Eigenpair2D:
    """Ground state of the masked five-point Laplacian.

    LOBPCG over active-cell vectors in np.nonzero(mask) order, started from
    the all-ones vector and preconditioned by the exact inverse of the
    Dirichlet Laplacian on the bounding box, padded so that its type-I sine
    transforms have fast lengths.  The masked operator is a principal
    submatrix of the box operator, so by Cauchy interlacing the box's
    smallest eigenvalue bounds lambda1 from below; LOBPCG's absolute stop at
    tol times that bound gives a relative eigenresidual
    |A v - lambda v| / lambda <= tol, which is checked again on the result.
    max_outer caps the LOBPCG iterations.
    """
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise ParameterError("tolerance must be positive and finite")
    mask = grid.mask
    n = grid.activeCount
    h2 = grid.spacing * grid.spacing
    box_min = sum(float(_dirichlet_symbol(m, h2)[0]) for m in mask.shape)
    padded = tuple(next_fast_len(m + 1, real=True) - 1 for m in mask.shape)
    symbol = _dirichlet_symbol(padded[0], h2)[:, None] + _dirichlet_symbol(padded[1], h2)
    # the grid sits in the corner of the padded box; only active entries
    # are ever written, so the rest stay zero for the stencil and the solve
    box = np.zeros(padded)
    flat = box.ravel()
    active = np.ravel_multi_index(np.nonzero(mask), padded)

    def apply_a(x: np.ndarray) -> np.ndarray:
        flat[active] = x.ravel()
        out = 4.0 * box
        out[1:, :] -= box[:-1, :]
        out[:-1, :] -= box[1:, :]
        out[:, 1:] -= box[:, :-1]
        out[:, :-1] -= box[:, 1:]
        return out.ravel()[active] / h2

    def box_solve(r: np.ndarray) -> np.ndarray:
        flat[active] = r.ravel()
        coef = dstn(box, type=1)
        coef /= symbol
        return idstn(coef, type=1, overwrite_x=True).ravel()[active]

    with warnings.catch_warnings():
        # LOBPCG's own non-convergence notice; the residual check below decides
        warnings.filterwarnings("ignore", message="(Exited|Failed) ", category=UserWarning)
        _, x = lobpcg(
            LinearOperator((n, n), matvec=apply_a, dtype=float),
            np.ones((n, 1)),
            M=LinearOperator((n, n), matvec=box_solve, dtype=float),
            tol=tol * box_min,
            maxiter=max_outer,
            largest=False,
        )
    v = x[:, 0] / np.linalg.norm(x[:, 0])
    av = apply_a(v)
    lam = float(v @ av)
    res = float(np.linalg.norm(av - lam * v)) / lam
    if not res <= tol:
        raise NumericError(
            f"LOBPCG missed tol={tol:g} within {max_outer} iterations (residual {res:.3e})"
        )
    u = v / grid.spacing
    if float(u.sum()) < 0.0:
        u = -u
    return Eigenpair2D(lambda1=lam, u=u, residual=res, grid=grid)


def vdberg_statistic(pair: Eigenpair2D, rho: float, dm: float) -> float:
    """Scale-invariant sup-norm statistic sup|u| * rho * (D/rho)^(1/6).

    Relies on the unit L2 normalization of u, so sup|u| is the ratio of
    norms that the diameter-inradius bound controls.
    """
    if not (math.isfinite(rho) and rho > 0.0 and math.isfinite(dm) and dm > 0.0):
        raise ParameterError("inradius and diameter must be positive")
    return float(np.max(np.abs(pair.u))) * rho * (dm / rho) ** (1.0 / 6.0)


def gj_profile_error(pair: Eigenpair2D, hf: HeightFunction, profile: Eigenpair1D) -> float:
    """Sup distance between the 2D ground state and its 1D-profile surrogate.

    Both fields are max-normalized; the surrogate is profile(x) times the
    transverse sine mode pinned to the local boundary graphs.  The sup runs
    over active cells whose x lies in the middle half of the longest run
    where h stays above the localization threshold.
    """
    if profile.f.size != hf.h.size - 2:
        raise ParameterError("1D profile grid does not match the height function grid")
    scale = localization_scale(hf)
    start, stop = longest_run(hf.h >= 1.0 - 1.0 / (scale * scale))
    if stop == start:
        raise ParameterError("height function never reaches the localization level")
    nodes = hf.nodes()
    x_lo = nodes[start]
    x_hi = nodes[stop - 1]
    center = 0.5 * (x_lo + x_hi)
    quarter = 0.25 * (x_hi - x_lo)
    xa, ya = pair.grid.points()
    sel = (xa >= center - quarter) & (xa <= center + quarter)
    if not sel.any():
        raise ParameterError("no active cells fall in the concentric half-window")
    xq = xa[sel]
    yq = ya[sel]
    u1 = pair.u[sel] / float(np.max(np.abs(pair.u)))
    phi_nodes = np.concatenate(([0.0], profile.f / float(np.max(np.abs(profile.f))), [0.0]))
    phi = np.interp(xq, nodes, phi_nodes)
    f1v = np.interp(xq, nodes, hf.f1)
    hv = np.maximum(np.interp(xq, nodes, hf.h), 1e-12)
    alpha = math.pi * (yq - f1v) / hv
    return float(np.max(np.abs(u1 - phi * np.sin(alpha))))
