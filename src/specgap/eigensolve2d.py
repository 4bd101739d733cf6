"""Masked-grid Dirichlet Laplacian ground states and derived diagnostics.

Domains are rasterized onto uniform grid nodes; nodes strictly inside the
polygon are active and all outside neighbors are held at zero.  The smallest
eigenpair of the matrix-free five-point stencil on active cells comes from
LOBPCG (Knyazev 2001) preconditioned by one float32 geometric multigrid
V-cycle (Knyazev & Neymeyr, ETNA 15, 2003) whose coarsest level is the exact
inverse of the bounding box's Dirichlet Laplacian, by type-I sine transforms
taken from numpy's real FFT.  LOBPCG starts from the ground state of the
same problem on the grid of twice the spacing, solved loosely in the same
way and prolonged (full multigrid); the operator, LOBPCG and the final
residual check are float64.
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
    """Mark grid nodes strictly inside the polygon, one run per grid column.

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
    # node (x, y) is left of edge p -> q when a(y) = (qx - px)(y - py) exceeds
    # b(x) = (qy - py)(x - px), as a rounded a - b > 0 is exactly a > b; a is
    # monotone in y, so each edge cuts column i at one end of its run [lo, hi)
    lo, hi = np.zeros(nx, dtype=np.intp), np.full(nx, ny, dtype=np.intp)
    for (px, py), (qx, qy) in zip(v, np.roll(v, -1, axis=0)):
        a, b = (qx - px) * (y - py), (qy - py) * (x - px)
        if qx >= px:
            np.maximum(lo, np.searchsorted(a, b, side="right"), out=lo)
        else:
            np.minimum(hi, np.searchsorted(-a, -b, side="left"), out=hi)
    if not np.any(lo < hi):
        raise GeometryError("rasterization produced no interior nodes")
    parts = _components(lo, hi)
    if parts != 1:
        raise GeometryError(f"interior nodes split into {parts} components")
    mask = (lo[:, None] <= np.arange(ny)) & (np.arange(ny) < hi[:, None])
    return MaskedGrid(spacing=float(spacing), origin=np.array([xmin, ymin]), mask=mask)


def _components(lo: np.ndarray, hi: np.ndarray) -> int:
    """Number of 4-connected components of the column runs [lo[i], hi[i]).

    The mask is connected when its nonempty columns are consecutive and the
    runs of neighbouring columns overlap, and each break starts a component.
    """
    cols = np.flatnonzero(lo < hi)
    lo, hi = lo[cols], hi[cols]
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


# The full-multigrid start solves the 2h problem only to this relative
# residual: it supplies a start vector, and a tighter coarse solve (1e-6)
# saved almost no fine-level iterations on the vdberg cones.
_COARSE_TOL = 1e-3
# Below this many nodes across its shorter side, or this many active nodes,
# a 2h mask is too small to be worth a solve, and LOBPCG starts from ones.
_FMG_MIN_NODES = 33
# LOBPCG needs at least five times its block size (one vector) of unknowns;
# below that scipy switches to a dense solve with another return signature.
_MIN_ACTIVE = 5


def _prolong(coarse: np.ndarray, fine: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """fine = P coarse on the mask, by bilinear interpolation from the nodes (2i, 2j).

    fine has shape 2 * coarse.shape - 1 and keeps its own dtype.
    """
    fine[::2, ::2] = coarse
    for v in (fine[:, ::2], fine.T):  # one axis at a time
        np.add(v[:-2:2], v[2::2], out=v[1::2])
        v[1::2] *= 0.5
    fine *= mask
    return fine


def _multigrid(mask: np.ndarray, h2: float) -> tuple[Callable, Callable, np.ndarray, Callable]:
    """The masked five-point Laplacian, one float32 multigrid V-cycle for it,
    the 2h mask, and lift, the prolongation P from that mask.

    The functions act on float64 active-cell vectors in np.nonzero(mask)
    order.  Level k solves S x = (2^k h)^2 b for the unscaled stencil S on
    the nodes (2^k i, 2^k j) of the zero-padded box, down to 4 to 8
    intervals across its shorter side.  Two masked Jacobi sweeps (omega 0.8)
    precede and follow the correction P (next level's cycle) P^T r, with
    bilinear P (_prolong), or on the coarsest level the box's exact inverse
    by type-I sine transforms (_box_inverse).
    The mirrored sweeps contract in the energy norm, so the cycle is SPD to
    float32 rounding: its levels are float32 (mixed-precision multigrid:
    Goeddeke, Strzodka & Turek, IJPEDS 22, 2007), while the operator keeps
    float64 arrays of its own.  The 2h mask is the padded mask at the nodes
    (2i, 2j); lift needs two or more levels, which a 2h mask of 3 or more
    nodes across implies.
    """
    levels = max(1, ((min(mask.shape) - 1) // 4).bit_length())
    padded = np.pad(mask, [(0, -(m - 1) % (1 << (levels - 1))) for m in mask.shape])
    masks = [padded[:: 1 << k, :: 1 << k] for k in range(levels)]
    xs, gs, ts = ([np.zeros(m.shape, dtype=np.float32) for m in masks] for _ in range(3))
    x64, t64 = np.zeros(padded.shape), np.zeros(padded.shape)
    box_inverse = _box_inverse(masks[-1].shape)
    active = np.ravel_multi_index(np.nonzero(mask), padded.shape)
    coarse = padded[::2, ::2]

    def stencil(x: np.ndarray, t: np.ndarray, m: np.ndarray) -> np.ndarray:  # -S x on m, into t
        np.multiply(x, -4.0, out=t)
        t[1:, :] += x[:-1, :]
        t[:-1, :] += x[1:, :]
        t[:, 1:] += x[:, :-1]
        t[:, :-1] += x[:, 1:]
        t *= m
        return t

    def residual(k: int) -> np.ndarray:  # g_k - S x_k on the mask, into t_k (g_k is 0 off it)
        return np.add(stencil(xs[k], ts[k], masks[k]), gs[k], out=ts[k])

    def smooth(k: int) -> None:  # one Jacobi sweep: S has diagonal 4
        xs[k] += np.multiply(residual(k), 0.2, out=ts[k])

    def apply_a(v: np.ndarray) -> np.ndarray:
        x64.ravel()[active] = v.ravel()
        return stencil(x64, t64, padded).ravel()[active] / -h2

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
                xs[k] += _prolong(xs[k + 1], ts[k], masks[k])
            smooth(k)
            smooth(k)
        return xs[0].ravel()[active].astype(np.float64)

    def lift(c: np.ndarray) -> np.ndarray:
        full = np.zeros(coarse.shape)
        full[coarse] = c
        return _prolong(full, np.empty(padded.shape), padded).ravel()[active]

    return apply_a, vcycle, coarse, lift


def _ground_state(
    mask: np.ndarray, h2: float, tol: float, max_outer: int
) -> tuple[float, np.ndarray, float, int]:
    """LOBPCG ground pair of the masked stencil: lambda, unit v, residual, iterations.

    The start is the ground state on the 2h mask (_multigrid), solved by this
    function to _COARSE_TOL and prolonged by P (full multigrid: Brandt,
    Math. Comp. 31, 1977), or the all-ones vector when that mask is below
    _FMG_MIN_NODES.  The residual |A v - lambda v| / lambda is recomputed in
    float64 and not checked here; iterations counts this level's only.
    """
    n = int(np.count_nonzero(mask))
    box_min = sum(float(_dirichlet_symbol(m, h2)[0]) for m in mask.shape)
    apply_a, vcycle, coarse, lift = _multigrid(mask, h2)
    start = np.ones(n)
    if min(coarse.shape) >= _FMG_MIN_NODES and np.count_nonzero(coarse) >= _FMG_MIN_NODES:
        start = lift(_ground_state(coarse, 4.0 * h2, _COARSE_TOL, max_outer)[1])
    with warnings.catch_warnings():
        # LOBPCG's own non-convergence notice; the caller's residual check decides
        warnings.filterwarnings("ignore", message="(Exited|Failed) ", category=UserWarning)
        _, x, history = lobpcg(
            LinearOperator((n, n), matvec=apply_a, dtype=float),
            start[:, None],
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
    # the history holds the start, one entry per iteration and a final re-check
    return lam, v, res, len(history) - 2


def smallest_eigenpair_2d(grid: MaskedGrid, tol: float = 1e-6, max_outer: int = 2000) -> Eigenpair2D:
    """Ground state of the masked five-point Laplacian.

    LOBPCG over active-cell vectors in np.nonzero(mask) order, preconditioned
    by one float32 multigrid V-cycle (_multigrid) and started from the
    prolonged ground state of the 2h grid, solved loosely the same way down
    to a floor (_ground_state).  The masked operator is a principal
    submatrix of the bounding box's Dirichlet Laplacian, so by Cauchy
    interlacing the box's smallest eigenvalue bounds lambda1 from below;
    LOBPCG's absolute stop at tol times that bound gives a relative
    eigenresidual |A v - lambda v| / lambda <= tol, which is checked again
    in float64 on the result.  Only this fine-level check raises.
    max_outer caps the LOBPCG iterations of each level; iterations reports
    how many ran on the fine level.
    """
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise ParameterError("tolerance must be positive and finite")
    if grid.activeCount < _MIN_ACTIVE:
        raise ParameterError(
            f"the mask has {grid.activeCount} active nodes; the solver needs at least {_MIN_ACTIVE}"
        )
    lam, v, res, iterations = _ground_state(grid.mask, grid.spacing * grid.spacing, tol, max_outer)
    if not res <= tol:
        raise NumericError(
            f"LOBPCG missed tol={tol:g} within {max_outer} iterations (residual {res:.3e})"
        )
    u = v / grid.spacing
    if float(u.sum()) < 0.0:
        u = -u
    return Eigenpair2D(lambda1=lam, u=u, residual=res, iterations=iterations, grid=grid)


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
