"""Masked-grid Dirichlet Laplacian ground states and derived diagnostics.

Domains are rasterized onto uniform grid nodes; nodes strictly inside the
polygon are active and all outside neighbors are held at zero.  The smallest
eigenpair of the matrix-free five-point stencil on active cells comes from
LOBPCG (Knyazev 2001) preconditioned by one geometric multigrid V-cycle
(Knyazev & Neymeyr, ETNA 15, 2003) whose coarsest level is the exact
inverse of the bounding box's Dirichlet Laplacian, by type-I sine transforms
taken from numpy's real FFT.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse.linalg import LinearOperator, lobpcg

from .convexdomain import (
    MAX_GRID_NODES,
    ConvexPolygon,
    HeightFunction,
    inradius,
    localization_scale,
    longest_run,
)
from .eigensolve1d import Eigenpair1D
from .errors import GeometryError, NumericError, ParameterError


@dataclass(frozen=True)
class MaskedGrid:
    """Uniform node grid over a polygon's bounding box with an interior mask.

    mask[i, j] flags the node at origin + (i, j) * spacing; indexing is
    x-major so CSV exports iterate rows in (i, j) order. activeCount is
    the number of flagged nodes, counted from the mask.
    """

    spacing: float
    origin: np.ndarray
    mask: np.ndarray
    activeCount: int = field(init=False)

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
        if count < 1:
            raise ParameterError("mask must flag at least one node")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "activeCount", count)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        i, j = np.nonzero(self.mask)
        return self.origin[0] + i * self.spacing, self.origin[1] + j * self.spacing


@dataclass(frozen=True)
class Eigenpair2D:
    """Ground state over active cells, L2-normalized with weight spacing^2."""

    lambda1: float
    u: np.ndarray
    residual: float
    iterations: int
    grid: MaskedGrid


def rasterize(poly: ConvexPolygon, spacing: float) -> MaskedGrid:
    """Mark grid nodes strictly inside the polygon.

    Spacing coarser than a quarter inradius leaves too few cells across the
    thin direction for the stencil to see the domain shape and is rejected,
    and so is a bounding box of more than MAX_GRID_NODES nodes, before
    anything is allocated. The interior nodes must be 4-connected.
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
    # clamped at the cap first, so a huge box is never rounded to an integer
    nx, ny = (
        int(math.ceil(min(extent / spacing, MAX_GRID_NODES) - 1e-9)) + 1
        for extent in (xmax - xmin, ymax - ymin)
    )
    if nx * ny > MAX_GRID_NODES:
        raise ParameterError(
            f"spacing {spacing:g} over a {xmax - xmin:g} x {ymax - ymin:g} box needs more"
            f" than MAX_GRID_NODES = {MAX_GRID_NODES} grid nodes"
        )
    x = xmin + spacing * np.arange(nx)
    y = ymin + spacing * np.arange(ny)
    inside = np.ones((nx, ny), dtype=bool)
    gx = x[:, None]
    gy = y[None, :]
    for k in range(len(v)):
        px, py = v[k]
        qx, qy = v[(k + 1) % len(v)]
        inside &= (qx - px) * (gy - py) - (qy - py) * (gx - px) > 0.0
    if not inside.any():
        raise GeometryError("rasterization produced no interior nodes")
    parts = _components(inside)
    if parts != 1:
        raise GeometryError(f"interior nodes split into {parts} components")
    return MaskedGrid(spacing=float(spacing), origin=np.array([xmin, ymin]), mask=inside)


def _components(mask: np.ndarray) -> int:
    """Number of 4-connected components of a nonempty mask of single-run columns.

    Every column mask[i] of a convex polygon's mask is one run [lo, hi), so
    the mask is connected when its nonempty columns are consecutive and the
    runs of neighbouring columns overlap, and each break starts a component.
    """
    cols = np.flatnonzero(mask.any(axis=1))
    lo = np.argmax(mask, axis=1)[cols]
    hi = mask.shape[1] - np.argmax(mask[:, ::-1], axis=1)[cols]
    breaks = (np.diff(cols) > 1) | (np.maximum(lo[1:], lo[:-1]) >= np.minimum(hi[1:], hi[:-1]))
    return 1 + int(np.count_nonzero(breaks))


def _dirichlet_symbol(n: int, h2: float) -> np.ndarray:
    """Eigenvalues of the three-point Dirichlet stencil on n nodes, ascending."""
    return (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))) / h2


def _box_inverse(shape: tuple[int, int]) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of the unscaled five-point stencil on a zero-padded box.

    The stencil is diagonal in the type-I sine basis, so its inverse is
    dst(dst(r) / symbol) / (4 (n0 + 1)(n1 + 1)) with the unnormalized DST-I
    y_k = 2 sum_j a_j sin(pi (j + 1)(k + 1) / (n + 1)) along each axis,
    read off the real FFT of the odd extension (0, a, 0, -reversed a) as
    minus its imaginary part.
    """
    n0, n1 = shape
    symbol = np.add.outer(_dirichlet_symbol(n0, 1.0), _dirichlet_symbol(n1, 1.0))
    scale = 0.25 / ((n0 + 1) * (n1 + 1) * symbol)

    def dst2(a: np.ndarray) -> np.ndarray:
        for _ in range(2):  # along axis 1, then along axis 0 after a transpose
            m, n = a.shape
            z = np.zeros((m, 2 * n + 2))
            z[:, 1 : n + 1] = a
            z[:, n + 2 :] = -a[:, ::-1]
            a = -np.fft.rfft(z)[:, 1 : n + 1].imag.T
        return a

    return lambda r: dst2(dst2(r) * scale)


def _multigrid(mask: np.ndarray, h2: float) -> tuple[Callable, Callable]:
    """The masked five-point Laplacian and one multigrid V-cycle for it.

    Both act on active-cell vectors in np.nonzero(mask) order.  Level k
    solves S x = (2^k h)^2 b for the unscaled stencil S on the nodes
    (2^k i, 2^k j) of the zero-padded box, down to 4 to 8 intervals across
    its shorter side.  Two masked Jacobi sweeps (omega 0.8) precede and
    follow the correction P (next level's cycle) P^T r, with bilinear P, or
    on the coarsest level the box's exact inverse by type-I sine transforms
    (_box_inverse).
    The mirrored sweeps contract in the energy norm, so the cycle is SPD.
    """
    levels = max(1, ((min(mask.shape) - 1) // 4).bit_length())
    padded = np.pad(mask, [(0, -(m - 1) % (1 << (levels - 1))) for m in mask.shape])
    masks = [padded[:: 1 << k, :: 1 << k] for k in range(levels)]
    xs, gs, ts = ([np.zeros(m.shape) for m in masks] for _ in range(3))
    box_inverse = _box_inverse(masks[-1].shape)
    active = np.ravel_multi_index(np.nonzero(mask), padded.shape)

    def residual(k: int) -> np.ndarray:  # g_k - S x_k on the mask, into t_k
        x, t = xs[k], ts[k]
        np.multiply(x, -4.0, out=t)
        t[1:, :] += x[:-1, :]
        t[:-1, :] += x[1:, :]
        t[:, 1:] += x[:, :-1]
        t[:, :-1] += x[:, 1:]
        t += gs[k]
        t *= masks[k]
        return t

    def smooth(k: int) -> None:  # one Jacobi sweep: S has diagonal 4
        xs[k] += np.multiply(residual(k), 0.2, out=ts[k])

    def apply_a(v: np.ndarray) -> np.ndarray:  # -residual(x = v, g = 0) / h^2
        xs[0].ravel()[active] = v.ravel()  # x_0 is free between cycles
        gs[0].ravel()[active] = 0.0
        return residual(0).ravel()[active] / -h2

    def vcycle(r: np.ndarray) -> np.ndarray:
        gs[0].ravel()[active] = h2 * r.ravel()
        for k in range(levels):  # pre-smooth, restrict the residual
            np.multiply(gs[k], 0.2, out=xs[k])  # the first sweep, from zero
            smooth(k)
            t = residual(k)
            if k + 1 < levels:
                for v in (t.T, t[:, ::2]):  # P^T, one axis at a time
                    v[1::2] *= 0.5
                    v[:-2:2] += v[1::2]
                    v[2::2] += v[1::2]
                np.multiply(t[::2, ::2], masks[k + 1], out=gs[k + 1])
        xs[-1] += box_inverse(ts[-1]) * masks[-1]
        for k in reversed(range(levels)):  # prolong the correction, post-smooth
            if k + 1 < levels:
                t = ts[k]
                t[::2, ::2] = xs[k + 1]
                for v in (t[:, ::2], t.T):  # P
                    np.add(v[:-2:2], v[2::2], out=v[1::2])
                    v[1::2] *= 0.5
                t *= masks[k]
                xs[k] += t
            smooth(k)
            smooth(k)
        return xs[0].ravel()[active]

    return apply_a, vcycle


def smallest_eigenpair_2d(grid: MaskedGrid, tol: float = 1e-6, max_outer: int = 2000) -> Eigenpair2D:
    """Ground state of the masked five-point Laplacian.

    LOBPCG over active-cell vectors in np.nonzero(mask) order, started from
    the all-ones vector and preconditioned by one multigrid V-cycle
    (_multigrid).  The masked operator is a principal submatrix of the
    bounding box's Dirichlet Laplacian, so by Cauchy interlacing the box's
    smallest eigenvalue bounds lambda1 from below; LOBPCG's absolute stop at
    tol times that bound gives a relative eigenresidual
    |A v - lambda v| / lambda <= tol, which is checked again on the result.
    max_outer caps the LOBPCG iterations; iterations reports how many ran.
    """
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise ParameterError("tolerance must be positive and finite")
    mask = grid.mask
    n = grid.activeCount
    h2 = grid.spacing * grid.spacing
    box_min = sum(float(_dirichlet_symbol(m, h2)[0]) for m in mask.shape)
    apply_a, vcycle = _multigrid(mask, h2)
    with warnings.catch_warnings():
        # LOBPCG's own non-convergence notice; the residual check below decides
        warnings.filterwarnings("ignore", message="(Exited|Failed) ", category=UserWarning)
        _, x, history = lobpcg(
            LinearOperator((n, n), matvec=apply_a, dtype=float),
            np.ones((n, 1)),
            M=LinearOperator((n, n), matvec=vcycle, dtype=float),
            tol=tol * box_min,
            maxiter=max_outer,
            largest=False,
            retResidualNormsHistory=True,
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
    # the history holds the start, one entry per iteration and a final re-check
    return Eigenpair2D(lambda1=lam, u=u, residual=res, iterations=len(history) - 2, grid=grid)


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
