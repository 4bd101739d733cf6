"""Masked-grid Dirichlet Laplacian ground states.

Domains are rasterized onto uniform grid nodes; nodes strictly inside the
polygon are active and all outside neighbors are held at zero.  The smallest
eigenpair of the matrix-free five-point stencil on active cells comes from
LOBPCG (Knyazev 2001) preconditioned by one float32 geometric multigrid
V-cycle (Knyazev & Neymeyr, ETNA 15, 2003) whose coarsest level is solved
exactly on its mask by a float32 sparse LU.  LOBPCG starts from the ground
state of the same problem on the grid of twice the spacing, solved loosely
in the same way and prolonged (full multigrid); the operator, LOBPCG and
the final residual check are float64.  A mask equal to its mirror image
about its middle column is solved on its half, where the even ground state
lives, and checked on the full mask.

The solver's arrays, masks included, are the [:, :-1] views of
C-contiguous bases with one extra zero column, the guard.  Read flat, row
neighbours lie one row width apart and column neighbours side by side, and
the guard stands in for the box edge at both ends of each row, so each
stencil shift, Jacobi sweep and column pass of the grid transfers is one
contiguous or stride-2 pass instead of one short loop per row.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import lobpcg, splu

from .convexdomain import MAX_GRID_NODES, ConvexPolygon, inradius
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
# most LOBPCG iterations on each level, the fine one included
_MAX_OUTER = 2000


def _guarded(a: np.ndarray) -> np.ndarray:
    """a with one zero column appended, as a C-contiguous base whose [:, :-1] is a."""
    base = np.zeros((a.shape[0], a.shape[1] + 1), dtype=a.dtype)
    base[:, :-1] = a
    return base


def _prolong(coarse: np.ndarray, fine: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """fine = P coarse on the mask, by bilinear interpolation from the nodes (2i, 2j).

    All three are guarded bases (_guarded), fine's view is twice coarse's
    less one along each axis, and fine keeps its own dtype.  Its row width
    is even, so the column pass is one stride-2 pass over the flat base; the
    sums it writes into fine's guard are zeroed by the mask's.
    """
    fine[::2, ::2] = coarse[:, :-1]
    v, flat = fine[:, ::2], fine.ravel()
    np.add(v[:-2:2], v[2::2], out=v[1::2])  # rows, on the even columns
    v[1::2] *= 0.5
    np.add(flat[:-2:2], flat[2::2], out=flat[1:-1:2])  # columns
    flat[1:-1:2] *= 0.5
    fine *= mask
    return fine


def _stencil(x: np.ndarray, t: np.ndarray, m: np.ndarray, fold: bool) -> np.ndarray:
    """-S x on the mask m, into t; fold adds column 1's mirror image to column 0.

    x, t and m are guarded bases (_guarded) of row width w, read flat: row
    neighbours lie w entries apart, and x's guard, which must be zero, is
    the box edge at both ends of each row.  Each node adds the terms it adds
    over the box, in the same order, plus the guard's zeros; m's guard
    zeroes t's.
    """
    w = x.shape[1]
    flat, out = x.ravel(), t.ravel()
    np.multiply(flat, -4.0, out=out)
    out[w:] += flat[:-w]
    out[:-w] += flat[w:]
    out[1:] += flat[:-1]
    out[:-1] += flat[1:]
    if fold:
        out[::w] += flat[1::w]
    out *= m.ravel()
    return t


def _unfold(a: np.ndarray, fold: bool) -> np.ndarray:
    """With fold, the whole array that a half even about its column 0 stands for."""
    return np.hstack((a[:, :0:-1], a)) if fold else a


def _coarsest_solve(mask: np.ndarray, fold: bool) -> Callable[[np.ndarray], np.ndarray]:
    """x = S^-1 r for the unscaled stencil S of _stencil on the guarded mask, by float32 sparse LU.

    r and x are float32 vectors over np.flatnonzero(mask).  S is built on the
    flat base, where the guard keeps rows apart, and restricted to the mask;
    with fold, column 0's right neighbour counts twice.  An empty mask gives
    a 0 x 0 factor, whose solve returns an empty vector.
    """
    n, w, active = mask.size, mask.shape[1], np.flatnonzero(mask)
    right = np.where(np.arange(n - 1) % w == 0, -2.0 if fold else -1.0, -1.0)
    s = sp.diags([-1.0, -1.0, 4.0, right, -1.0], [-w, -1, 0, 1, w], shape=(n, n), format="csc")
    return splu(s[active][:, active].astype(np.float32)).solve


def _multigrid(
    mask: np.ndarray, h2: float, fold: bool
) -> tuple[Callable, Callable, np.ndarray, Callable]:
    """The masked five-point Laplacian, one float32 multigrid V-cycle for it,
    the 2h mask, and lift, the prolongation P from that mask.

    The functions act on float64 active-cell vectors in np.nonzero(mask)
    order, of shape (n,) or (n, 1), and keep the shape.  Level k solves
    S x = (2^k h)^2 b for the unscaled stencil S on the nodes (2^k i, 2^k j)
    of the zero-padded box, down to 16 to 32 intervals across the shorter
    side of mask.  Two masked Jacobi sweeps (omega 0.8) precede and follow
    the correction P (next level's cycle) P^T r, with bilinear P (_prolong),
    or on the coarsest level the masked stencil's exact solve
    (_coarsest_solve).  That solve keeps the correction on the coarsest
    mask, and at 4 to 8 intervals a thin domain's mask holds only a node
    or two across, too few to carry it.
    Every level's arrays and masks, and the operator's, are guarded bases
    (_guarded).  The stencil, the sweeps and P^T run on them flat: each
    level that restricts has odd padded sides, so its row width is even,
    the column passes are stride-2 passes over the whole base, and P^T's
    row pass runs on the even columns alone, with the odd ones (no longer
    read) holding the halved values.  Only P's row pass and the gathers
    between levels use the [:, :-1] views.
    The mirrored sweeps contract in the energy norm, so the cycle is SPD to
    float32 rounding: its levels are float32 (mixed-precision multigrid:
    Goeddeke, Strzodka & Turek, IJPEDS 22, 2007), while the operator keeps
    float64 arrays of its own.  The 2h mask is the padded mask at the nodes
    (2i, 2j); lift needs two or more levels, which a 2h mask of 17 or more
    nodes across implies.
    With fold, mask is the half of a mask even about its column 0, which
    coarsens onto itself: the stencil, P^T and the coarsest solve add column
    1's mirror image to column 0.
    That is self-adjoint under the weight 1/2 on column 0 and 1 elsewhere,
    so the functions scale column 0 by sqrt(1/2), which makes it symmetric.
    """
    levels = max(1, ((min(mask.shape) - 1) // 16).bit_length())
    padded = np.pad(mask, [(0, -(m - 1) % (1 << (levels - 1))) for m in mask.shape])
    masks = [_guarded(padded[:: 1 << k, :: 1 << k]) for k in range(levels)]
    xs, gs, ts = ([np.zeros(m.shape, dtype=np.float32) for m in masks] for _ in range(3))
    x64, t64 = np.zeros(masks[0].shape), np.zeros(masks[0].shape)
    cact, coarsest = np.flatnonzero(masks[-1]), _coarsest_solve(masks[-1], fold)
    active = np.ravel_multi_index(np.nonzero(mask), masks[0].shape)
    edge = math.sqrt(0.5) if fold else 1.0
    root = np.where(np.nonzero(mask)[1] == 0, edge, 1.0)

    def residual(k: int) -> np.ndarray:  # g_k - S x_k on the mask, into t_k (g_k is 0 off it)
        return np.add(_stencil(xs[k], ts[k], masks[k], fold), gs[k], out=ts[k])

    def smooth(k: int) -> None:  # one Jacobi sweep: S has diagonal 4
        xs[k] += np.multiply(residual(k), 0.2, out=ts[k])

    def apply_a(v: np.ndarray) -> np.ndarray:
        x64.ravel()[active] = v.ravel() / root
        av = _stencil(x64, t64, masks[0], fold).ravel()[active] / -h2 * root
        return av.reshape(v.shape)

    def vcycle(r: np.ndarray) -> np.ndarray:
        gs[0].ravel()[active] = h2 * r.ravel() / root
        for k in range(levels):  # pre-smooth, restrict the residual
            np.multiply(gs[k], 0.2, out=xs[k])  # the first sweep, from zero
            smooth(k)
            t = residual(k)
            if k + 1 < levels:  # P^T, one axis at a time
                flat, w = t.ravel(), t.shape[1]
                flat[1::2] *= 0.5  # columns, flat: the guard adds zeros
                flat[::2] += flat[1::2]
                flat[2::2] += flat[1:-1:2]
                if fold:
                    flat[::w] += flat[1::w]
                even, odd, n = flat[::2], flat[1::2], w // 2  # rows, on the even columns
                np.multiply(even, 0.5, out=odd)  # halves, where nothing is read any more
                even[:-n] += odd[n:]  # of which only the even rows are gathered
                even[n:] += odd[:-n]
                np.multiply(t[::2, ::2], masks[k + 1][:, :-1], out=gs[k + 1][:, :-1])
        xs[-1].ravel()[cact] += coarsest(ts[-1].ravel()[cact])
        for k in reversed(range(levels)):  # prolong the correction, post-smooth
            if k + 1 < levels:
                xs[k] += _prolong(xs[k + 1], ts[k], masks[k])
            smooth(k)
            smooth(k)
        return (xs[0].ravel()[active].astype(np.float64) * root).reshape(r.shape)

    def lift(c: np.ndarray) -> np.ndarray:
        full = np.zeros(masks[1].shape)
        full[masks[1]] = c
        full[:, 0] /= edge
        fine = np.zeros(masks[0].shape)  # _prolong never writes its last guard entry
        return _prolong(full, fine, masks[0]).ravel()[active] * root

    return apply_a, vcycle, padded[::2, ::2], lift


def _ground_state(mask: np.ndarray, h2: float, tol: float, fold: bool) -> tuple[np.ndarray, int]:
    """LOBPCG ground state of the masked stencil: unit v and iterations.

    The start is the ground state on the 2h mask (_multigrid), solved by this
    function to _COARSE_TOL and prolonged by P (full multigrid: Brandt,
    Math. Comp. 31, 1977), or the all-ones vector when that mask, unfolded,
    is below _FMG_MIN_NODES.  With fold, mask is a half and v is scaled as
    _multigrid's vectors are.  iterations counts this level's only.  LOBPCG
    stops at tol times box_min, the smallest eigenvalue of the whole
    (unfolded) bounding box's Dirichlet Laplacian: one three-point symbol
    per axis.
    """
    n = int(np.count_nonzero(mask))
    box_min = sum((2.0 - 2.0 * math.cos(math.pi / (m + 1))) / h2 for m in _unfold(mask, fold).shape)
    apply_a, vcycle, coarse, lift = _multigrid(mask, h2, fold)
    start = np.ones(n)
    whole = _unfold(coarse, fold)  # the gate reads the full 2h mask
    if min(whole.shape) >= _FMG_MIN_NODES and np.count_nonzero(whole) >= _FMG_MIN_NODES:
        start = lift(_ground_state(coarse, 4.0 * h2, _COARSE_TOL, fold)[0])
    iterations = 0

    def precondition(r: np.ndarray) -> np.ndarray:  # once in each iteration that runs
        nonlocal iterations
        iterations += 1
        return vcycle(r)

    with warnings.catch_warnings():
        # LOBPCG's own non-convergence notice; the caller's residual check decides
        warnings.filterwarnings("ignore", message="(Exited|Failed) ", category=UserWarning)
        _, x = lobpcg(
            apply_a,
            start[:, None],
            M=precondition,
            tol=tol * box_min,
            maxiter=_MAX_OUTER - 1,  # scipy numbers its iterations from 0 to maxiter
            largest=False,
        )
    return x[:, 0] / np.linalg.norm(x[:, 0]), iterations


def smallest_eigenpair_2d(grid: MaskedGrid, tol: float = 1e-6) -> Eigenpair2D:
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
    A mask with an odd number of columns that equals its mirror image
    about the middle one, and whose half holds _MIN_ACTIVE nodes, is solved
    on that half, as the simple ground state is even (_multigrid's fold);
    the check then runs on the even extension over the full mask.
    _MAX_OUTER caps the LOBPCG iterations of each level; iterations reports
    how many ran on the fine level.
    """
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise ParameterError("tolerance must be positive and finite")
    if grid.activeCount < _MIN_ACTIVE:
        raise ParameterError(
            f"the mask has {grid.activeCount} active nodes; the solver needs at least {_MIN_ACTIVE}"
        )
    mask, h2 = grid.mask, grid.spacing * grid.spacing
    half = mask[:, (mask.shape[1] - 1) // 2 :]
    fold = mask.shape[1] % 2 == 1 and np.count_nonzero(half) >= _MIN_ACTIVE
    fold = fold and np.array_equal(mask, mask[:, ::-1])
    v, iterations = _ground_state(half if fold else mask, h2, tol, fold)
    if fold:  # the even extension, with the mirror column's scale undone
        x = np.zeros(half.shape)
        x[half] = v
        x[:, 0] /= math.sqrt(0.5)
        v = _unfold(x, fold)[mask]
        v /= np.linalg.norm(v)
    guarded = _guarded(mask)
    x = np.zeros(guarded.shape)
    x[guarded] = v
    av = _stencil(x, np.empty(x.shape), guarded, False)[guarded] / -h2
    lam = float(v @ av)
    res = float(np.linalg.norm(av - lam * v)) / lam
    if not res <= tol:
        raise NumericError(
            f"LOBPCG missed tol={tol:g} after {iterations} of at most {_MAX_OUTER} iterations"
            f" (residual {res:.3e})"
        )
    u = v / grid.spacing
    if float(u.sum()) < 0.0:
        u = -u
    return Eigenpair2D(lambda1=lam, u=u, residual=res, iterations=iterations, grid=grid)

