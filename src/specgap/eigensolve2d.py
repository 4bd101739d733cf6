"""Masked-grid Dirichlet Laplacian ground states.

Domains are rasterized onto uniform grid nodes; nodes strictly inside the
polygon are active and all outside neighbors are held at zero.  The smallest
eigenpair of the matrix-free five-point stencil on active cells comes from
a block-one LOBPCG loop of its own (Knyazev 2001; _lopcg), preconditioned
by one float32 geometric multigrid V-cycle (Knyazev & Neymeyr, ETNA 15,
2003; _multigrid) whose coarsest level is solved exactly on its mask by a
float32 banded Cholesky factor (LAPACK pbtrf).  smallest_eigenpair_2d
starts the loop by full multigrid on the cycle's coarser levels and solves
a mirror-symmetric mask on its half; the operator, LOBPCG and the final
residual check are float64.

The solver's arrays, masks included, are the [:, :-1] views of
C-contiguous bases with one extra zero column, the guard.  Read flat, row
neighbours lie one row width apart and column neighbours side by side, and
the guard stands in for the box edge at both ends of each row, so each
stencil shift, Jacobi sweep, column pass of the grid transfers and row
average of the prolongation is one contiguous or stride-2 pass instead of
one short loop per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dsygvd, spbtrf, spbtrs

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


# The full-multigrid start solves the coarse levels only to this relative
# residual: it supplies a start vector, and a tighter coarse solve (1e-6)
# saved almost no fine-level iterations on the vdberg cones.
_COARSE_TOL = 1e-3
# Below this many nodes across its shorter side, or this many active nodes,
# a coarse level's whole mask is too small to be worth a solve, and the
# full-multigrid start begins from ones on the level above it.
_FMG_MIN_NODES = 33
# fewest active nodes of a mask the solver takes, and of a half it folds
# onto: LOBPCG's trial space x, w, p needs three, and a mask of a handful
# of nodes resolves no domain
_MIN_ACTIVE = 5
# most LOBPCG iterations on each level, the fine one included
_MAX_OUTER = 2000
# a level's solve ends after this many iterations without a new lowest
# residual, as one whose float64 residual cannot reach its stop has stalled;
# on vdberg's and gjCompare's grids at tol 1e-6 to 1e-13, no solve that
# reached its stop went more than 2 iterations without a new low
_STALL = 5


def _guarded(a: np.ndarray) -> np.ndarray:
    """a with one zero column appended, as a C-contiguous base whose [:, :-1] is a."""
    base = np.zeros((a.shape[0], a.shape[1] + 1), dtype=a.dtype)
    base[:, :-1] = a
    return base


def _prolong(coarse: np.ndarray, fine: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """fine = P coarse on the mask, by bilinear interpolation from the nodes (2i, 2j).

    All three are guarded bases (_guarded) of one dtype, and fine's view is
    twice coarse's less one along each axis.  The row pass averages
    neighbouring coarse rows in one pass over coarse's flat base, and only
    the copies into fine's even columns run row by row; fine's row width is
    even, so the column pass is one stride-2 pass over its flat base, and
    the sums it writes into fine's guard are zeroed by the mask's.
    """
    w, flat = coarse.shape[1], coarse.ravel()
    mean = np.add(flat[:-w], flat[w:]).reshape(-1, w)  # rows
    mean *= 0.5
    fine[::2, ::2] = coarse[:, :-1]
    fine[1::2, ::2] = mean[:, :-1]
    flat = fine.ravel()
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


def _coarsest_solve(mask: np.ndarray, roots: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """x = S^-1 r for the unscaled stencil S of _stencil on the guarded mask, by banded Cholesky.

    r and x are float32 vectors over np.flatnonzero(mask); roots is _multigrid's
    scale on them, sqrt(1/2) on a folded mask's column 0, whose right neighbour
    counts twice in S, else 1.  The float32 factor is of the symmetric R S R^-1,
    R = diag(roots), which couples node i to its right neighbour (of root 1) by
    -1/root_i and to the node below by -1.  An empty mask gives a 0 x 0 factor.
    """
    w, active = mask.shape[1], np.flatnonzero(mask)
    # numbered by rows, or by columns if rows are longer: the band is at most the
    # shorter side, and a node's right and lower neighbours come after it
    order = np.argsort(active if mask.shape[0] >= w - 1 else active % w, kind="stable")
    number = np.full(mask.size + w, -1)  # -1 off the mask, and below the last row
    number[active[order]] = np.arange(active.size)
    node, right, below = number[active], number[active + 1], number[active + w]
    band = np.max(np.maximum(right, below) - node, initial=0)
    ab = np.zeros((band + 1, active.size), dtype=np.float32)
    ab[band] = 4.0
    for nb, value in ((right, -1.0 / roots), (below, -1.0)):
        keep = nb >= 0
        ab[band + node[keep] - nb[keep], nb[keep]] = np.broadcast_to(value, nb.shape)[keep]
    factor, info = spbtrf(ab)
    if info:  # the float32 matrix lost definiteness at a leading minor
        raise NumericError(f"coarsest-level Cholesky failed at leading minor {info} of {node.size}")
    scale = roots.astype(np.float32)

    def solve(r: np.ndarray) -> np.ndarray:
        x, _ = spbtrs(factor, (r * scale)[order])
        return x[node] / scale

    return solve


def _multigrid(
    mask: np.ndarray, h2: float, fold: bool
) -> tuple[list[np.ndarray], Callable, Callable, Callable]:
    """The level masks of mask's multigrid hierarchy and, for a level k, the
    masked five-point Laplacian at (2^k h)^2, one float32 V-cycle for it
    from level k down, and lift, the prolongation P from level k + 1 to k.

    operator(k) maps a 1-D float64 vector over np.nonzero(masks[k]) to
    another, and so does vcycle(k, r); lift(k, c) maps such a vector from
    level k + 1 to k.  Level k holds the nodes (2^k i, 2^k j) of the
    zero-padded box, down to 16 to 32 intervals across the shorter side of
    mask (a coarser level holds too few nodes across a thin domain), and
    solves S x = (2^k h)^2 b for the unscaled
    stencil S: two masked Jacobi sweeps (omega 0.8) precede and follow the
    correction P (next level's cycle) P^T r, with bilinear P (_prolong), or
    on the coarsest level _coarsest_solve's exact banded Cholesky solve.
    Every level's arrays and masks are guarded bases (_guarded): a level
    that restricts has odd padded sides, so its row width is even, P^T's
    column pass is one stride-2 pass over the flat base, and its row pass
    runs on the even columns alone, the odd ones (no longer read) holding
    the halved values.
    The mirrored sweeps contract in the energy norm, so the cycle is SPD to
    float32 rounding (mixed-precision multigrid: Goeddeke, Strzodka & Turek,
    IJPEDS 22, 2007); each operator allocates float64 arrays of its own.
    With fold, mask is the half of a mask even about its column 0, which
    coarsens onto itself: the stencil, P^T and the coarsest solve add column
    1's mirror image to column 0.  That is self-adjoint under the weight
    1/2 on column 0 and 1 elsewhere, so the functions scale column 0 by
    sqrt(1/2), which makes it symmetric.
    """
    levels = max(1, ((min(mask.shape) - 1) // 16).bit_length())
    padded = np.pad(mask, [(0, -(m - 1) % (1 << (levels - 1))) for m in mask.shape])
    masks = [_guarded(padded[:: 1 << k, :: 1 << k]) for k in range(levels)]
    xs, gs, ts = ([np.zeros(m.shape, dtype=np.float32) for m in masks] for _ in range(3))
    actives, edge = [np.flatnonzero(m) for m in masks], math.sqrt(0.5) if fold else 1.0
    roots = [np.where(a % m.shape[1] == 0, edge, 1.0) for a, m in zip(actives, masks)]
    coarsest = _coarsest_solve(masks[-1], roots[-1])

    def residual(k: int) -> np.ndarray:  # g_k - S x_k on the mask, into t_k (g_k is 0 off it)
        return np.add(_stencil(xs[k], ts[k], masks[k], fold), gs[k], out=ts[k])

    def smooth(k: int) -> None:  # one Jacobi sweep: S has diagonal 4
        xs[k] += np.multiply(residual(k), 0.2, out=ts[k])

    def operator(top: int) -> Callable[[np.ndarray], np.ndarray]:
        x64, t64 = np.zeros(masks[top].shape), np.zeros(masks[top].shape)

        def apply_a(v: np.ndarray) -> np.ndarray:
            x64.ravel()[actives[top]] = v / roots[top]
            av = _stencil(x64, t64, masks[top], fold).ravel()[actives[top]]
            return av / -(h2 * 4**top) * roots[top]

        return apply_a

    def vcycle(top: int, r: np.ndarray) -> np.ndarray:
        gs[top].ravel()[actives[top]] = h2 * 4**top * r / roots[top]
        for k in range(top, levels):  # pre-smooth, restrict the residual
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
        xs[-1].ravel()[actives[-1]] += coarsest(ts[-1].ravel()[actives[-1]])
        for k in reversed(range(top, levels)):  # prolong the correction, post-smooth
            if k + 1 < levels:
                xs[k] += _prolong(xs[k + 1], ts[k], masks[k])
            smooth(k)
            smooth(k)
        return xs[top].ravel()[actives[top]].astype(np.float64) * roots[top]

    def lift(k: int, c: np.ndarray) -> np.ndarray:
        full = np.zeros(masks[k + 1].shape)
        full.ravel()[actives[k + 1]] = c / roots[k + 1]
        fine = np.zeros(masks[k].shape)  # _prolong never writes its last guard entry
        return _prolong(full, fine, masks[k]).ravel()[actives[k]] * roots[k]

    return [m[:, :-1] for m in masks], operator, vcycle, lift


def _lopcg(
    apply_a: Callable[[np.ndarray], np.ndarray],
    precondition: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    stop: float,
) -> tuple[np.ndarray, int]:
    """Block-one LOBPCG from x (Knyazev 2001): lowest-residual iterate, precondition calls.

    Each step stops once the residual r = A x - lambda x has norm <= stop;
    else Rayleigh-Ritz on x, the preconditioned residual w (orthonormalized
    against x) and the previous step p (normalized, and dropped when zero or
    when it leaves the Gram matrix singular) gives the next x, lambda and
    p, the 3 x 3 problem solved by LAPACK dsygvd.  The loop also ends after
    _MAX_OUTER steps, after _STALL steps without a new lowest residual, or
    when [x, w] itself is singular.  The vectors are updated by linear
    combinations, never stacked into a block.
    """
    x = x / np.linalg.norm(x)
    ax = apply_a(x)
    lam, p, ap = x @ ax, None, None
    low, low_at, best = math.inf, 0, x
    for calls in count():
        r = ax - lam * x
        res = np.linalg.norm(r)
        if res < low:
            low, low_at, best = res, calls, x
        if res <= stop or calls == _MAX_OUTER or calls - low_at > _STALL:
            return best, calls
        w = precondition(r)
        w -= (x @ w) * x
        w /= np.linalg.norm(w)
        basis, images = [x, w], [ax, apply_a(w)]
        norm = 0.0 if p is None else np.linalg.norm(p)
        if norm > 0.0:
            basis.append(p / norm)
            images.append(ap / norm)
        while True:
            lams, c, info = dsygvd(_gram(basis, images), _gram(basis, basis))
            if not info:
                break
            if len(basis) == 2:  # drop p; a singular [x, w] ends the loop
                return best, calls + 1
            basis.pop()
            images.pop()
        lam, c = lams[0], c[:, 0]
        p, ap = c[1] * basis[1], c[1] * images[1]
        if len(basis) == 3:
            p += c[2] * basis[2]
            ap += c[2] * images[2]
        x, ax = c[0] * x + p, c[0] * ax + ap


def _gram(us: list, vs: list) -> np.ndarray:
    """The lower triangle of [u_i . v_j], which is all dsygvd reads."""
    g = np.zeros((len(us), len(us)))
    for i in range(len(us)):
        for j in range(i + 1):
            g[i, j] = us[j] @ vs[i]
    return g


def smallest_eigenpair_2d(grid: MaskedGrid, tol: float = 1e-6) -> Eigenpair2D:
    """Ground state of the masked five-point Laplacian.

    LOBPCG (_lopcg) over active-cell vectors in np.nonzero(mask) order,
    preconditioned by _multigrid's V-cycle from the level it solves down.
    A mask with an odd number of columns that equals its mirror image
    about the middle one, and whose half holds _MIN_ACTIVE nodes, is solved
    on that half, as the simple ground state is even (_multigrid's fold).
    Full multigrid (Brandt, Math. Comp. 31, 1977) starts the loop: from
    ones on the deepest level whose whole (unfolded) mask has _FMG_MIN_NODES
    across and active, each level is solved to _COARSE_TOL times box_min and
    lifted to start the next, and level 0 to tol times box_min.  box_min is
    the smallest eigenvalue of the Dirichlet Laplacian on the level's whole
    box (mask.shape on level 0, padded below it), one three-point symbol per
    axis.  The masked operator is a principal submatrix of that Laplacian,
    so by Cauchy interlacing box_min bounds lambda1 from below, and the stop
    gives a relative eigenresidual |A v - lambda v| / lambda <= tol, which
    is checked again in float64 on the full mask.  Only this check raises,
    also when the loop stalled (_STALL) short of its stop.  _MAX_OUTER caps
    the LOBPCG iterations of each level; iterations reports how many ran on
    level 0.
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
    masks, operator, vcycle, lift = _multigrid(half if fold else mask, h2, fold)
    wholes = (_unfold(m, fold) for m in masks[1:])  # the gate reads whole masks
    small = [min(w.shape) < _FMG_MIN_NODES or np.count_nonzero(w) < _FMG_MIN_NODES for w in wholes]
    top = (small + [True]).index(True)  # the level above the first small one
    v = np.ones(np.count_nonzero(masks[top]))
    for k in range(top, -1, -1):
        box = _unfold(masks[k], fold).shape if k else mask.shape
        box_min = sum((2.0 - 2.0 * math.cos(math.pi / (m + 1))) / (h2 * 4**k) for m in box)
        stop = (tol if k == 0 else _COARSE_TOL) * box_min
        v, iterations = _lopcg(operator(k), partial(vcycle, k), v, stop)
        v = v / np.linalg.norm(v)
        v = lift(k - 1, v) if k else v  # the next finer level's start
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

