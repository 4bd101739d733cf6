import gc
import math
import re
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse as sp
from scipy import ndimage
from scipy.sparse.linalg import eigsh, lobpcg
from scipy.spatial import ConvexHull

from specgap import eigensolve2d
from specgap.convexdomain import (
    ConvexPolygon,
    HeightFunction,
    generate_family,
    gj_potential,
    inradius,
    localization_scale,
    normalize_gj,
)
from specgap.eigensolve1d import smallest_eigenpair
from specgap.eigensolve2d import (
    _FMG_MIN_NODES,
    _MIN_ACTIVE,
    MAX_GRID_NODES,
    Eigenpair2D,
    MaskedGrid,
    _coarsest_solve,
    _components,
    _guarded,
    _lopcg,
    _multigrid,
    rasterize,
    smallest_eigenpair_2d,
)
from specgap.errors import GeometryError, NumericError, ParameterError
from specgap.pipeline import _gj_profile_error

PI2 = math.pi**2

# frozen reference values (radial Bessel quadrature oracle)
DISK_LAMBDA = 5.783185962946783
DISK_SUP_RATIO = 1.0867616361312724
DISK_STATISTIC = 1.2198486921159535


def square(side=1.0):
    return ConvexPolygon(
        vertices=np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    )


def rectangle(w, h):
    return ConvexPolygon(vertices=np.array([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]]))


def level_masks(mask):
    # the masks of the V-cycle's levels, by _multigrid's rule: the padded box
    # at the nodes (2^k i, 2^k j), down to 16 to 32 intervals across
    levels = max(1, ((min(mask.shape) - 1) // 16).bit_length())
    padded = np.pad(mask, [(0, -(m - 1) % (1 << (levels - 1))) for m in mask.shape])
    return [padded[:: 1 << k, :: 1 << k] for k in range(levels)]


def thin_strip():
    # a 127 x 7 active strip in a 129 x 129 box: the shorter side has 128
    # intervals, so the V-cycle coarsens 3 times to spacing 8 h, and no
    # node (8 i, 8 j) lies in columns 1..7
    mask = np.zeros((129, 129), dtype=bool)
    mask[1:128, 1:8] = True
    assert not level_masks(mask)[-1].any()
    return MaskedGrid(spacing=1.0 / 64.0, origin=np.zeros(2), mask=mask)


def disk_polygon(radius=1.0, k=256):
    ang = 2 * np.pi * np.arange(k) / k
    return ConvexPolygon(
        vertices=np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])
    )


# ---------- rasterize ----------


def test_rasterize_unit_square_interior_nodes():
    grid = rasterize(square(), 1.0 / 8.0)
    assert grid.activeCount == 49
    assert grid.mask.shape == (9, 9)
    assert grid.mask[4, 4]
    assert not grid.mask[0, 0] and not grid.mask[8, 8]
    # boundary rows/columns are entirely excluded by the strict-inside rule
    assert not grid.mask[0, :].any() and not grid.mask[:, 0].any()
    assert not grid.mask[8, :].any() and not grid.mask[:, 8].any()
    np.testing.assert_allclose(grid.origin, [0.0, 0.0])
    assert grid.spacing == 0.125


def test_rasterize_refinement_scales_count():
    c1 = rasterize(square(), 1.0 / 8.0).activeCount
    c2 = rasterize(square(), 1.0 / 16.0).activeCount
    assert 3.0 < c2 / c1 < 5.0


def test_rasterize_rejects_coarse_spacing():
    with pytest.raises(ParameterError):
        rasterize(square(), 0.2)  # inradius/4 = 0.125


def test_rasterize_connected_component():
    grid = rasterize(generate_family("cone", 8.0), 1.0 / 16.0)
    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    _, parts = ndimage.label(grid.mask, structure=four)
    assert parts == 1
    assert grid.activeCount == int(grid.mask.sum())


def halfplane_mask(v, spacing):
    # the former rasterize: each edge's half-plane test over the whole box
    lo, hi = v.min(axis=0), v.max(axis=0)
    nx, ny = (int(math.ceil(e / spacing - 1e-9)) + 1 for e in hi - lo)
    gx = lo[0] + spacing * np.arange(nx)[:, None]
    gy = lo[1] + spacing * np.arange(ny)[None, :]
    inside = np.ones((nx, ny), dtype=bool)
    for (px, py), (qx, qy) in zip(v, np.roll(v, -1, axis=0)):
        inside &= (qx - px) * (gy - py) - (qy - py) * (gx - px) > 0.0
    return inside


def runs(mask):
    # (lo, hi) of each column's one run of True; (0, 0) for an empty column
    lo = np.argmax(mask, axis=1)
    hi = np.where(mask.any(axis=1), mask.shape[1] - np.argmax(mask[:, ::-1], axis=1), 0)
    j = np.arange(mask.shape[1])
    assert np.array_equal(mask, (lo[:, None] <= j) & (j < hi[:, None]))
    return lo, hi


FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def rasterized_like_halfplanes(poly, spacing):
    # True when rasterize's mask equals the reference bit for bit, False
    # when both find the interior split
    expected = halfplane_mask(poly.vertices, spacing)
    try:
        mask = rasterize(poly, spacing).mask
    except GeometryError:
        assert ndimage.label(expected, structure=FOUR)[1] != 1
        return False
    assert mask.dtype == expected.dtype and np.array_equal(mask, expected)
    return True


def test_rasterize_matches_halfplanes_on_families():
    for kind in ("cone", "stadium", "isoTriangle"):
        for d in (4.0, 8.0, 16.0, 64.0):
            poly = generate_family(kind, d)
            poly2 = normalize_gj(poly)[0]
            for spacing in (1.0 / 5.0, 1.0 / 7.0, 1.0 / 16.0, 1.0 / 32.0):
                assert rasterized_like_halfplanes(poly, spacing)
                assert rasterized_like_halfplanes(poly2, spacing / 4.0)


def test_rasterize_matches_halfplanes_on_random_hulls():
    rng = np.random.default_rng(23)
    matched = 0
    for _ in range(300):
        pts = rng.normal(size=(int(rng.integers(3, 30)), 2)) * rng.uniform(0.05, 3.0, size=2)
        poly = ConvexPolygon(vertices=pts[ConvexHull(pts).vertices])
        matched += rasterized_like_halfplanes(poly, inradius(poly) * rng.uniform(0.02, 0.25))
    assert matched > 250


def test_rasterize_matches_halfplanes_on_integer_hulls():
    # integer vertices and spacings 2^-k put many nodes exactly on slanted
    # edges, where the strict inequality decides
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(800):
        pts = rng.integers(0, 9, size=(int(rng.integers(3, 12)), 2)).astype(float)
        if np.linalg.matrix_rank(pts[1:] - pts[0]) < 2:
            continue
        poly = ConvexPolygon(vertices=pts[ConvexHull(pts).vertices])
        rho = inradius(poly)
        for k in range(6):
            if 2.0**-k <= 0.25 * rho:
                checked += rasterized_like_halfplanes(poly, 2.0**-k)
    assert checked > 3000


def test_run_check_matches_label_on_families():
    for kind in ("cone", "stadium", "isoTriangle"):
        for d, spacing in ((8.0, 1.0 / 16.0), (16.0, 1.0 / 8.0), (32.0, 1.0 / 5.0)):
            mask = rasterize(generate_family(kind, d), spacing).mask
            assert _components(*runs(mask)) == ndimage.label(mask, structure=FOUR)[1] == 1


def test_run_check_matches_label_on_random_polygons():
    # coarse grids over thin random hulls split into several components
    rng = np.random.default_rng(11)
    counts = set()
    for _ in range(300):
        pts = rng.normal(size=(int(rng.integers(3, 12)), 2)) * rng.uniform(0.05, 3.0, size=2)
        v = pts[ConvexHull(pts).vertices]
        mask = halfplane_mask(v, float(rng.uniform(0.05, 0.6)))
        if mask.any():
            expected = ndimage.label(mask, structure=FOUR)[1]
            assert _components(*runs(mask)) == expected
            counts.add(expected)
    assert {1, 2, 3} <= counts


def test_run_check_counts_breaks():
    mask = np.zeros((6, 5), dtype=bool)
    mask[0, 1:3] = mask[2, 1:3] = True  # an empty column between equal runs
    mask[3, 3:5] = True  # touches column 2 only at a corner
    mask[4, 0:4] = mask[5, 2] = True
    assert _components(*runs(mask)) == ndimage.label(mask, structure=FOUR)[1] == 3


def test_thin_tilted_tip_splits_components():
    # a long triangle whose tip runs at slope 1/2: the inradius/4 spacing
    # rule passes, but the last interior node near the tip is cut off
    d = np.array([2.0, 1.0]) / math.sqrt(5.0)
    n = np.array([-d[1], d[0]])
    poly = ConvexPolygon(vertices=np.array([-d - 1.5 * n, 8.0 * d, -d + 1.5 * n]))
    spacing = 0.25 * inradius(poly)
    assert ndimage.label(halfplane_mask(poly.vertices, spacing), structure=FOUR)[1] == 2
    with pytest.raises(GeometryError, match="split into 2 components"):
        rasterize(poly, spacing)


def test_rasterize_node_cap():
    # a 2760 x 12152 box at spacing 1 has 2761 * 12153 = MAX_GRID_NODES + 1
    # nodes: rejected before the mask is allocated
    assert 2761 * 12153 == MAX_GRID_NODES + 1
    with pytest.raises(ParameterError, match="MAX_GRID_NODES"):
        rasterize(rectangle(2760.0, 12152.0), 1.0)
    with pytest.raises(ParameterError, match="MAX_GRID_NODES"):
        rasterize(square(), 1e-300)


def test_rasterize_node_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(eigensolve2d, "MAX_GRID_NODES", 81)
    assert rasterize(square(), 1.0 / 8.0).mask.size == 81
    monkeypatch.setattr(eigensolve2d, "MAX_GRID_NODES", 80)
    with pytest.raises(ParameterError, match="more than MAX_GRID_NODES = 80"):
        rasterize(square(), 1.0 / 8.0)


def coarsest_solve_cases():
    # (mask, fold): the coarsest levels the cone's cycle solves, whole and
    # folded, box-filling, even-width and empty masks, and the 17 x 129
    # coarsest level of the cone D=16 with x and y swapped, wider than tall
    cone = level_masks(rasterize(generate_family("cone", 8.0), 1.0 / 64.0).mask)[-1]
    wide = level_masks(rasterize(generate_family("cone", 16.0), 1.0 / 64.0).mask)[-1].T
    assert wide.shape == (17, 129)
    return [
        (cone, False),
        (cone[:, (cone.shape[1] - 1) // 2 :], True),
        (np.ones((9, 9), dtype=bool), False),
        (np.ones((9, 8), dtype=bool), False),
        (level_masks(thin_strip().mask)[-1], False),
        (wide, False),
    ]


@pytest.mark.parametrize(
    "mask, fold",
    coarsest_solve_cases(),
    ids=["cone", "cone-folded", "fills-box", "even", "empty", "wide"],
)
def test_coarsest_solve_inverts_the_masked_stencil(monkeypatch, mask, fold):
    bands = []

    def recorded(ab, *args, **kwargs):  # the factor's band: ab holds it and the diagonal
        bands.append(ab.shape[0] - 1)
        return scipy.linalg.lapack.spbtrf(ab, *args, **kwargs)

    monkeypatch.setattr(eigensolve2d, "spbtrf", recorded)
    roots = np.where((np.nonzero(mask)[1] == 0) & fold, math.sqrt(0.5), 1.0)
    solve = _coarsest_solve(_guarded(mask), roots)
    # the nodes are numbered along the shorter side; in flat order the wide
    # mask's band would be about 129
    assert len(bands) == 1 and bands[0] <= min(mask.shape)
    r = np.random.default_rng(11).standard_normal(np.count_nonzero(mask)).astype(np.float32)
    x = solve(r)
    assert x.dtype == np.float32 and x.shape == r.shape
    if not r.size:  # the thin strip's coarsest level holds no node
        return
    whole = np.hstack((mask[:, :0:-1], mask)) if fold else mask
    grid = MaskedGrid(spacing=1.0, origin=np.zeros(2), mask=whole)
    s = _masked_laplacian(grid)  # the unscaled stencil at unit spacing
    sx = Fold(grid).restrict(s @ Fold(grid).even(x)) if fold else s @ x
    # Cholesky is backward stable: the residual is a few float32 roundings of
    # |S| |x|, and S's rows sum to at most 8 in absolute value
    assert np.max(np.abs(sx - r)) <= 8.0 * 8.0 * np.finfo(np.float32).eps * np.max(np.abs(x))


def test_indefinite_coarsest_matrix_is_numeric_error():
    # roots of 0.05 couple each node to its right neighbour by -20 against
    # the diagonal 4: the factorization fails, and says so as a NumericError
    mask = coarsest_solve_cases()[0][0]
    with pytest.raises(NumericError, match="coarsest-level Cholesky failed at leading minor"):
        _coarsest_solve(_guarded(mask), np.full(np.count_nonzero(mask), 0.05))


def test_masked_grid_validation():
    with pytest.raises(ParameterError):
        MaskedGrid(spacing=0.1, origin=np.zeros(2), mask=np.zeros((4, 4), dtype=bool))


# ---------- smallest_eigenpair_2d ----------


@pytest.fixture(scope="module")
def square_pair():
    grid = rasterize(square(), 1.0 / 128.0)
    return grid, smallest_eigenpair_2d(grid, tol=1e-8)


def test_square_matches_discrete_closed_form(square_pair):
    _, pair = square_pair
    h = 1.0 / 128.0
    exact = 2.0 * (2.0 / h**2) * (1.0 - math.cos(math.pi * h))
    assert pair.lambda1 == pytest.approx(exact, rel=1e-8)
    assert pair.lambda1 == pytest.approx(2.0 * PI2, rel=1e-3)


def test_square_eigenvector_is_product_sine(square_pair):
    grid, pair = square_pair
    i, j = np.nonzero(grid.mask)
    x = grid.origin[0] + i * grid.spacing
    y = grid.origin[1] + j * grid.spacing
    model = np.sin(math.pi * x) * np.sin(math.pi * y)
    assert np.max(np.abs(pair.u / pair.u.max() - model / model.max())) < 1e-6


def test_ground_state_positive_normalized(square_pair):
    grid, pair = square_pair
    assert np.all(pair.u > 0.0)
    assert np.sum(pair.u**2) * grid.spacing**2 == pytest.approx(1.0, abs=1e-12)
    # at unit L2 norm the product of sines peaks at 2
    assert float(np.max(pair.u)) == pytest.approx(2.0, rel=1e-3)
    assert pair.residual <= 1e-8


def test_disk_matches_bessel_ground_state():
    grid = rasterize(disk_polygon(), 1.0 / 128.0)
    pair = smallest_eigenpair_2d(grid, tol=1e-7)
    assert pair.lambda1 == pytest.approx(DISK_LAMBDA, rel=5e-3)
    ratio = float(np.max(np.abs(pair.u)))
    assert ratio == pytest.approx(DISK_SUP_RATIO, rel=5e-3)
    # the statistic sup|u| rho (D/rho)^(1/6) at inradius 1 and diameter 2
    assert ratio * 2.0 ** (1.0 / 6.0) == pytest.approx(DISK_STATISTIC, rel=5e-3)


def test_quarter_scaling_law():
    lam = []
    for side, spacing in ((1.0, 1.0 / 32.0), (2.0, 1.0 / 16.0)):
        pair = smallest_eigenpair_2d(rasterize(square(side), spacing), tol=1e-8)
        lam.append(pair.lambda1)
    assert lam[1] == pytest.approx(lam[0] / 4.0, rel=1e-7)


def test_domain_monotonicity():
    lam_small = smallest_eigenpair_2d(rasterize(square(), 1.0 / 32.0), tol=1e-7).lambda1
    lam_big = smallest_eigenpair_2d(
        rasterize(rectangle(2.0, 1.0), 1.0 / 32.0), tol=1e-7
    ).lambda1
    assert lam_big < lam_small


def _box_dirichlet(n, h):
    return sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]) / h**2


def _masked_laplacian(grid):
    nx, ny = grid.mask.shape
    h = grid.spacing
    box = sp.kron(_box_dirichlet(nx, h), sp.identity(ny)) + sp.kron(
        sp.identity(nx), _box_dirichlet(ny, h)
    )
    active = np.flatnonzero(grid.mask)
    return box.tocsr()[active][:, active].tocsc()


def test_cone_matches_sparse_shift_invert():
    grid = rasterize(generate_family("cone", 8.0), 1.0 / 16.0)
    masked = _masked_laplacian(grid)
    reference = eigsh(masked, k=1, sigma=0.0, which="LM", return_eigenvectors=False)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = smallest_eigenpair_2d(grid, tol=1e-8)
    assert pair.lambda1 == pytest.approx(reference, rel=1e-9)
    assert pair.residual <= 1e-8


def random_hull_grids(seed, count):
    # hulls of 3 to 30 points, 40 to 100 grid intervals across the box's
    # shorter side: grids on either side of the full-multigrid floor
    rng = np.random.default_rng(seed)
    grids = []
    while len(grids) < count:
        pts = rng.normal(size=(int(rng.integers(3, 30)), 2)) * rng.uniform(0.3, 3.0, size=2)
        poly = ConvexPolygon(vertices=pts[ConvexHull(pts).vertices])
        extent = np.ptp(poly.vertices, axis=0).min()
        spacing = min(0.25 * inradius(poly), extent / rng.uniform(40.0, 100.0))
        try:
            grids.append(rasterize(poly, spacing))
        except GeometryError:
            continue
    return grids


def test_full_multigrid_start_matches_sparse_shift_invert():
    grids = [
        rasterize(generate_family(kind, 8.0), 1.0 / 32.0)
        for kind in ("cone", "stadium", "isoTriangle")
    ] + random_hull_grids(31, 20)
    recursed = 0
    for grid in grids:
        masks = _multigrid(grid.mask, grid.spacing**2, False)[0]
        recursed += len(masks) > 1 and min(masks[1].shape) >= _FMG_MIN_NODES
        reference = eigsh(
            _masked_laplacian(grid), k=1, sigma=0.0, which="LM", return_eigenvectors=False
        )[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = smallest_eigenpair_2d(grid, tol=1e-8)
        assert pair.lambda1 == pytest.approx(reference, rel=1e-9)
        assert pair.residual <= 1e-8
    assert recursed >= 8


@pytest.mark.parametrize(
    "grid, interior",
    [
        # 513 nodes along x and 65 across; the border nodes lie on the
        # rectangle's edges and stay inactive
        (rasterize(rectangle(8.0, 1.0), 1.0 / 64.0), (511, 63)),
        # active cells fill the bounding box, whose 31 nodes across make one
        # level: the cycle is the coarsest solve between Jacobi sweeps
        (
            MaskedGrid(spacing=1.0 / 64.0, origin=np.zeros(2), mask=np.ones((63, 31), dtype=bool)),
            (63, 31),
        ),
        (thin_strip(), (127, 7)),
        # an even number of columns, so no fold: the active nodes touch all
        # four box sides, and only the zero guard column keeps rows apart
        (
            MaskedGrid(spacing=1.0 / 64.0, origin=np.zeros(2), mask=np.ones((63, 32), dtype=bool)),
            (63, 32),
        ),
    ],
    ids=["rectangle", "fills-box", "empty-coarsest", "fills-box-unfolded"],
)
def test_rectangles_match_discrete_closed_form(grid, interior):
    h = grid.spacing
    exact = sum((2.0 / h**2) * (1.0 - math.cos(math.pi / (m + 1))) for m in interior)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = smallest_eigenpair_2d(grid, tol=1e-8)
    assert pair.lambda1 == pytest.approx(exact, rel=1e-10)
    assert pair.residual <= 1e-8
    assert np.all(pair.u > 0.0)


def iteration_cases():
    # (polygon, tol, fine-level iterations): the nine grids of the default
    # vdberg and gjCompare runs at spacing 1/64, each bounded by its count
    # with a coarsest level exact on its mask; at D=16 a coarsest level that
    # inverted the whole bounding box took 125 iterations
    sizes = (8.0, 16.0, 32.0, 64.0)
    cones = [(generate_family("cone", d), 1e-6, n) for d, n in zip(sizes, (10, 12, 15, 18))]
    normalized = [
        (normalize_gj(generate_family("cone", d))[0], 1e-6, n)
        for d, n in zip(sizes, (10, 12, 16, 18))
    ]
    return cones + normalized + [(normalize_gj(rectangle(8.0, 1.0))[0], 1e-7, 9)]


@pytest.mark.parametrize(
    "poly, tol, most",
    iteration_cases(),
    ids=["D8", "D16", "D32", "D64"] + [f"normalized-D{d}" for d in (8, 16, 32, 64)] + ["rectangle"],
)
def test_cone_converges_in_few_iterations(poly, tol, most):
    # a coarsest solve that weakens the V-cycle shows here, and not in
    # test_lopcg_matches_scipys_lobpcg, whose two sides share it
    pair = smallest_eigenpair_2d(rasterize(poly, 1.0 / 64.0), tol=tol)
    assert 0 < pair.iterations <= most


def reference_lobpcg(apply_a, precondition, x, stop):
    # scipy's lobpcg in place of _lopcg, called as the solver called it
    # before: the same operator, V-cycle, start and stop, and the same cap,
    # as scipy numbers its iterations from 0 to maxiter; it has no stall exit.
    # scipy passes (n, 1) blocks, and the solver's functions take 1-D vectors
    calls = 0

    def counted(b):
        nonlocal calls
        calls += 1
        return precondition(b[:, 0])[:, None]

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="(Exited|Failed) ", category=UserWarning)
        _, v = lobpcg(
            lambda b: apply_a(b[:, 0])[:, None], x[:, None], M=counted, tol=stop,
            maxiter=eigensolve2d._MAX_OUTER - 1, largest=False,
        )
    return v[:, 0], calls


def reference_cases():
    # (grid, tol): vdberg's folded and normalized cones at its defaults,
    # gjCompare's normalized rectangle, and seeded random hulls
    rect = normalize_gj(rectangle(8.0, 1.0))[0]
    cones = [generate_family("cone", d) for d in (8.0, 16.0, 32.0, 64.0)]
    polys = cones + [normalize_gj(cone)[0] for cone in cones]
    cases = [(rasterize(poly, 1.0 / 64.0), 1e-6) for poly in polys]
    cases += [(rasterize(rect, 1.0 / 64.0), 1e-7)]
    return cases + [(grid, 1e-8) for grid in random_hull_grids(43, 4)]


@pytest.mark.parametrize(
    "grid, tol",
    reference_cases(),
    ids=[f"cone-D{d}" for d in (8, 16, 32, 64)]
    + [f"normalized-D{d}" for d in (8, 16, 32, 64)]
    + ["rectangle"]
    + [f"hull-{i}" for i in range(4)],
)
def test_lopcg_matches_scipys_lobpcg(monkeypatch, grid, tol):
    # the loop takes the fine-level iterations scipy's lobpcg took, from the
    # same full-multigrid start, to the same lambda1
    pair = smallest_eigenpair_2d(grid, tol=tol)
    monkeypatch.setattr(eigensolve2d, "_lopcg", reference_lobpcg)
    reference = smallest_eigenpair_2d(grid, tol=tol)
    assert pair.iterations == reference.iterations
    assert pair.lambda1 == pytest.approx(reference.lambda1, rel=1e-12)


class Fold:
    """The half of a mirror-symmetric grid that the solver folds onto.

    Half vectors follow np.nonzero(half) order and carry the solver's scale
    sqrt(1/2) on the mirror column (root); even() extends an unscaled half
    vector to the whole mask, and restrict() reads a full vector on the half.
    """

    def __init__(self, grid):
        mask = grid.mask
        assert mask.shape[1] % 2 == 1 and np.array_equal(mask, mask[:, ::-1])
        self.mask, self.m = mask, (mask.shape[1] - 1) // 2
        self.half = mask[:, self.m :]
        self.root = np.where(np.nonzero(self.half)[1] == 0, math.sqrt(0.5), 1.0)

    def even(self, v):
        x = np.zeros(self.mask.shape)
        x[:, self.m :][self.half] = v
        x[:, : self.m] = x[:, : self.m : -1]
        return x[self.mask]

    def restrict(self, w):
        x = np.zeros(self.mask.shape)
        x[self.mask] = w
        return x[:, self.m :][self.half]


@pytest.mark.parametrize(
    "grid, fold",
    [
        (rasterize(generate_family("cone", 8.0), 1.0 / 16.0), False),
        (thin_strip(), False),
        (rasterize(generate_family("cone", 8.0), 1.0 / 16.0), True),
        # a half of 33 columns, which the folded cycle restricts once
        (rasterize(generate_family("cone", 8.0), 1.0 / 32.0), True),
    ],
    ids=["cone", "empty-coarsest", "cone-folded", "cone-folded-two-levels"],
)
def test_vcycle_is_symmetric_positive_definite(grid, fold):
    # folded, the cycle and the operator act on scaled half vectors, where
    # symmetry under the weight 1/2 on the mirror column is plain symmetry
    f = Fold(grid) if fold else None
    _, operator, cycle, _ = _multigrid(f.half if fold else grid.mask, grid.spacing**2, fold)
    apply_a, vcycle = operator(0), lambda r: cycle(0, r)
    masked = _masked_laplacian(grid)
    if fold:
        reference = lambda x: f.root * f.restrict(masked @ f.even(x / f.root))
    else:
        reference = lambda x: masked @ x
    rng = np.random.default_rng(7)
    for _ in range(3):
        x, y = rng.standard_normal((2, f.root.size if fold else grid.activeCount))
        mx, my = vcycle(x), vcycle(y)
        # the cycle runs in float32, so it is symmetric to float32 rounding
        assert mx @ y == pytest.approx(x @ my, rel=1e-5)
        assert mx @ x > 0.0
        # the operator keeps float64 arrays of its own and stays exact
        np.testing.assert_allclose(apply_a(x), reference(x), rtol=1e-12, atol=1e-9)


def symmetric_hull_grids(seed, count):
    # random hulls mirrored about y = 0, at a spacing that puts a grid column
    # on the axis; the mask is intersected with its mirror image, so it is
    # symmetric even where rounding decides a node on a slanted edge
    rng = np.random.default_rng(seed)
    grids = []
    while len(grids) < count:
        pts = rng.normal(size=(int(rng.integers(3, 15)), 2)) * rng.uniform(0.3, 3.0, size=2)
        pts = np.vstack([pts, pts * [1.0, -1.0]])
        poly = ConvexPolygon(vertices=pts[ConvexHull(pts).vertices])
        top = poly.vertices[:, 1].max()
        k = int(rng.integers(20, 50))
        if 2.0 * top / (2 * k) > 0.25 * inradius(poly):
            continue
        try:
            grid = rasterize(poly, 2.0 * top / (2 * k))
        except GeometryError:
            continue
        mask = grid.mask & grid.mask[:, ::-1]
        if mask.shape[1] % 2 == 1 and mask.sum() >= 100:
            grids.append(MaskedGrid(spacing=grid.spacing, origin=grid.origin, mask=mask))
    return grids


def reference_stencil(x, t, m, fold):
    # the box layout: one pass per shift over the mask's own shape
    np.multiply(x, -4.0, out=t)
    t[1:, :] += x[:-1, :]
    t[:-1, :] += x[1:, :]
    t[:, 1:] += x[:, :-1]
    t[:, :-1] += x[:, 1:]
    if fold:
        t[:, :1] += x[:, 1:2]
    t *= m
    return t


def reference_prolong(coarse, fine, mask):
    fine[::2, ::2] = coarse
    for v in (fine[:, ::2], fine.T):  # one axis at a time
        np.add(v[:-2:2], v[2::2], out=v[1::2])
        v[1::2] *= 0.5
    fine *= mask
    return fine


def reference_multigrid(mask, h2, fold):
    # _multigrid on arrays of the padded box's shape, with no guard column
    masks = level_masks(mask)
    levels, padded = len(masks), masks[0]
    xs, gs, ts = ([np.zeros(m.shape, dtype=np.float32) for m in masks] for _ in range(3))
    x64, t64 = np.zeros(padded.shape), np.zeros(padded.shape)
    active = np.ravel_multi_index(np.nonzero(mask), padded.shape)
    coarse = padded[::2, ::2]
    edge = math.sqrt(0.5) if fold else 1.0
    root = np.where(np.nonzero(mask)[1] == 0, edge, 1.0)
    coarsest_root = np.where(np.nonzero(masks[-1])[1] == 0, edge, 1.0)
    coarsest = _coarsest_solve(_guarded(masks[-1]), coarsest_root)

    def residual(k):
        return np.add(reference_stencil(xs[k], ts[k], masks[k], fold), gs[k], out=ts[k])

    def smooth(k):
        xs[k] += np.multiply(residual(k), 0.2, out=ts[k])

    def apply_a(v):
        x64.ravel()[active] = v.ravel() / root
        return reference_stencil(x64, t64, padded, fold).ravel()[active] / -h2 * root

    def vcycle(r):
        gs[0].ravel()[active] = h2 * r.ravel() / root
        for k in range(levels):
            np.multiply(gs[k], 0.2, out=xs[k])
            smooth(k)
            t = residual(k)
            if k + 1 < levels:
                for v, mirror in ((t.T, fold), (t[:, ::2], False)):
                    v[1::2] *= 0.5
                    v[:-2:2] += v[1::2]
                    v[2::2] += v[1::2]
                    if mirror:
                        v[0] += v[1]
                np.multiply(t[::2, ::2], masks[k + 1], out=gs[k + 1])
        xs[-1][masks[-1]] += coarsest(ts[-1][masks[-1]])
        for k in reversed(range(levels)):
            if k + 1 < levels:
                xs[k] += reference_prolong(xs[k + 1], ts[k], masks[k])
            smooth(k)
            smooth(k)
        return xs[0].ravel()[active].astype(np.float64) * root

    def lift(c):
        full = np.zeros(coarse.shape)
        full[coarse] = c
        full[:, 0] /= edge
        return reference_prolong(full, np.empty(padded.shape), padded).ravel()[active] * root

    return apply_a, vcycle, coarse, lift


def guarded_layout_cases():
    # (mask, h^2, fold)
    cone = rasterize(generate_family("cone", 8.0), 1.0 / 16.0)
    cases = [(cone.mask, 1.0 / 256.0, False), (Fold(cone).half, 1.0 / 256.0, True)]
    cases += [(thin_strip().mask, 1.0 / 4096.0, False)]
    cases += [(np.ones((63, 31), dtype=bool), 1.0 / 4096.0, False)]
    for grid in symmetric_hull_grids(37, 2):
        cases += [(grid.mask, grid.spacing**2, False), (Fold(grid).half, grid.spacing**2, True)]
    return cases


@pytest.mark.parametrize(
    "mask, h2, fold",
    guarded_layout_cases(),
    ids=["cone", "cone-folded", "empty-coarsest", "fills-box"]
    + [f"hull-{i}{tag}" for i in (1, 2) for tag in ("", "-folded")],
)
def test_guarded_layout_matches_the_box_layout_to_the_bit(mask, h2, fold):
    # the flat passes over guarded bases do what the box layout did, node
    # by node in the same order, and level k of the one hierarchy does what
    # a hierarchy built on level k's mask at (2^k h)^2 did; calls alternate
    # between levels, so a guard column or a scratch entry left dirty by one
    # call would show in the next
    masks, operator, vcycle, lift = _multigrid(mask, h2, fold)
    expected = level_masks(mask)
    assert len(masks) == len(expected)
    refs = [reference_multigrid(m, 4**k * h2, fold) for k, m in enumerate(expected)]
    ops = [operator(k) for k in range(len(masks))]
    rng = np.random.default_rng(19)
    xs = [rng.standard_normal((3, np.count_nonzero(m))) for m in masks]
    for i in (0, 1, 0, 2):
        for k, (ref_a, ref_cycle, _, _) in enumerate(refs):
            x = xs[k][i]
            assert np.array_equal(masks[k], expected[k])
            assert np.array_equal(ops[k](x), ref_a(x))
            assert np.array_equal(vcycle(k, x), ref_cycle(x))
    for k, (_, _, ref_coarse, ref_lift) in enumerate(refs[:-1]):
        assert np.array_equal(masks[k + 1], ref_coarse)
        for c in rng.standard_normal((2, np.count_nonzero(ref_coarse))):
            assert np.array_equal(lift(k, c), ref_lift(c))
    # lift reads a level below k; the full-multigrid gate never asks for
    # one below the coarsest, as its whole 2h mask is under _FMG_MIN_NODES across
    coarse = refs[-1][2]
    whole = np.hstack((coarse[:, :0:-1], coarse)) if fold else coarse
    assert min(whole.shape) < _FMG_MIN_NODES


def test_folded_operator_is_the_laplacian_on_even_functions():
    for grid in [rasterize(generate_family("cone", d), 1.0 / 16.0) for d in (8.0, 16.0)]:
        f = Fold(grid)
        apply_a = _multigrid(f.half, grid.spacing**2, True)[1](0)
        x = np.random.default_rng(5).standard_normal(f.root.size)
        expected = f.restrict(_masked_laplacian(grid) @ f.even(x))
        np.testing.assert_allclose(apply_a(f.root * x) / f.root, expected, rtol=1e-12, atol=1e-12)


def test_folded_solve_matches_sparse_shift_invert():
    # the cones put the mirror column at every offset modulo the coarsest
    # spacing; 1/40 and 1/50 leave a half whose columns do not divide evenly
    grids = [
        rasterize(generate_family("cone", d), spacing)
        for d in (8.0, 16.0)
        for spacing in (1.0 / 16.0, 1.0 / 40.0, 1.0 / 50.0)
    ] + symmetric_hull_grids(37, 8)
    for grid in grids:
        Fold(grid)  # mirror-symmetric with an odd number of columns
        reference = eigsh(
            _masked_laplacian(grid), k=1, sigma=0.0, which="LM", return_eigenvectors=False
        )[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = smallest_eigenpair_2d(grid, tol=1e-8)
        assert pair.lambda1 == pytest.approx(reference, rel=1e-10)
        assert pair.residual <= 1e-8
        u = np.zeros(grid.mask.shape)
        u[grid.mask] = pair.u
        assert np.array_equal(u, u[:, ::-1])


def test_symmetric_mask_with_a_small_half_solves_whole():
    # a plus of five nodes: its half holds four, fewer than _MIN_ACTIVE
    mask = np.zeros((5, 5), dtype=bool)
    mask[1:4, 2] = mask[2, 1:4] = True
    assert np.count_nonzero(mask[:, 2:]) < _MIN_ACTIVE <= np.count_nonzero(mask)
    grid = MaskedGrid(spacing=0.25, origin=np.zeros(2), mask=mask)
    pair = smallest_eigenpair_2d(grid, tol=1e-8)
    exact = np.linalg.eigvalsh(_masked_laplacian(grid).toarray())[0]
    assert pair.lambda1 == pytest.approx(exact, rel=1e-10)
    assert np.all(pair.u > 0.0)


@pytest.mark.parametrize(
    "poly", [generate_family("cone", 8.0), normalize_gj(rectangle(8.0, 1.0))[0]],
    ids=["cone-folded", "rectangle"],
)
def test_one_hierarchy_and_one_factor_per_solve(monkeypatch, poly):
    # the full-multigrid start walks the fine solve's own levels, so the
    # coarsest mask is factored once, however many levels the start solves
    calls = {"_multigrid": 0, "_coarsest_solve": 0}
    for name in calls:
        def counted(*args, _inner=getattr(eigensolve2d, name), _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(eigensolve2d, name, counted)
    smallest_eigenpair_2d(rasterize(poly, 1.0 / 64.0), tol=1e-7)
    assert calls == {"_multigrid": 1, "_coarsest_solve": 1}


def test_rectangle_keeps_its_multigrid_start(rect_pair):
    # the normalized 8 x 1 rectangle folds onto a half of 33 columns; its 2h
    # half has 17, but the full 2h mask has 33, so the full-multigrid start
    # stays on. Started from ones, the solve took 17 iterations.
    _, pair, _ = rect_pair
    assert 0 < pair.iterations <= 10


def test_solve_leaves_no_reference_cycles():
    # the solver's arrays must go when it returns, not at the next garbage
    # collection, or a sweep's peak memory grows with each domain it solves
    grid = rasterize(generate_family("cone", 8.0), 1.0 / 16.0)
    gc.collect()
    gc.disable()
    try:
        smallest_eigenpair_2d(grid)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_unreachable_tolerance_raises(monkeypatch):
    grid = rasterize(square(), 1.0 / 16.0)
    monkeypatch.setattr(eigensolve2d, "_MAX_OUTER", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="after 1 of at most 1 iterations"):
            smallest_eigenpair_2d(grid, tol=1e-15)


def test_stalled_solve_reports_the_iterations_that_ran(monkeypatch):
    # the float64 residual cannot reach tol=1e-15: the fine level stops once
    # its residual has set no new low in _STALL iterations, long before the
    # cap and with no Gram matrix breaking down, and the message counts the
    # iterations that ran
    runs, breakdowns = [], []

    def recorded(apply_a, precondition, x, stop):
        norms = []

        def counted(r):
            norms.append(np.linalg.norm(r))  # the residual of the iteration
            return precondition(r)

        v, calls = _lopcg(apply_a, counted, x, stop)
        runs.append((norms, stop, calls))
        return v, calls

    def dsygvd(*args, **kwargs):
        w, v, info = scipy.linalg.lapack.dsygvd(*args, **kwargs)
        if info:
            breakdowns.append(args)
        return w, v, info

    monkeypatch.setattr(eigensolve2d, "_lopcg", recorded)
    monkeypatch.setattr(eigensolve2d, "dsygvd", dsygvd)
    grid = rasterize(square(), 1.0 / 32.0)
    with pytest.raises(NumericError) as info:
        smallest_eigenpair_2d(grid, tol=1e-15)
    ran = re.search(r"after (\d+) of at most (\d+) iterations", str(info.value))
    norms, stop, calls = runs[-1]
    assert ran is not None and int(ran[2]) == eigensolve2d._MAX_OUTER
    assert int(ran[1]) == calls == len(norms) and 0 < calls < 100
    assert min(norms) > stop
    assert int(np.argmin(norms)) == calls - eigensolve2d._STALL - 1
    assert not breakdowns


def test_lapack_calls_match_the_scipy_wrappers(monkeypatch):
    # pbtrf, pbtrs and sygvd called directly give the bits that scipy's
    # cholesky_banded, cho_solve_banded and eigh, which call them, gave before
    def gv(a, b):
        try:
            return (*scipy.linalg.eigh(a, b, check_finite=False), 0)
        except scipy.linalg.LinAlgError:
            return None, None, 1

    wrappers = {
        "spbtrf": lambda ab: (scipy.linalg.cholesky_banded(ab, check_finite=False), 0),
        "spbtrs": lambda c, b: (
            scipy.linalg.cho_solve_banded((c, False), b, check_finite=False), 0
        ),
        "dsygvd": gv,
    }
    polys = [generate_family("cone", 8.0), normalize_gj(rectangle(8.0, 1.0))[0], square()]
    grids = [rasterize(poly, 1.0 / 32.0) for poly in polys]
    direct = [smallest_eigenpair_2d(grid, tol=1e-8) for grid in grids]
    for name, wrapper in wrappers.items():
        monkeypatch.setattr(eigensolve2d, name, wrapper)
    for pair, grid in zip(direct, grids):
        reference = smallest_eigenpair_2d(grid, tol=1e-8)
        assert (pair.lambda1, pair.residual, pair.iterations) == (
            reference.lambda1, reference.residual, reference.iterations
        )
        assert np.array_equal(pair.u, reference.u)


def test_exact_sine_start_drops_a_vanishing_step():
    # the sampled sine is the square's discrete ground state to rounding, so
    # a Ritz step from it can keep x exactly and leave the step p exactly
    # zero; p is then dropped, not divided by its norm (a RuntimeWarning)
    grid = rasterize(square(), 1.0 / 16.0)
    _, operator, vcycle, _ = _multigrid(grid.mask, grid.spacing**2, False)
    apply_a, precondition = operator(0), partial(vcycle, 0)
    i, j = np.nonzero(grid.mask)
    sine = np.sin(np.pi * i / 16.0) * np.sin(np.pi * j / 16.0)
    unit = sine / np.linalg.norm(sine)
    a_unit = apply_a(unit)
    start = np.linalg.norm(a_unit - (unit @ a_unit) * unit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a start within the stop returns before any V-cycle
        v, calls = _lopcg(apply_a, precondition, sine, start)
        assert calls == 0 and np.array_equal(v, unit)
        # an unreachable stop runs until the residual stalls
        v, calls = _lopcg(apply_a, precondition, sine, 0.0)
    assert eigensolve2d._STALL < calls < 20
    np.testing.assert_allclose(np.abs(v) / np.linalg.norm(v), unit, atol=1e-13)


def test_bad_tolerance_rejected():
    grid = rasterize(square(), 1.0 / 16.0)
    with pytest.raises(ParameterError):
        smallest_eigenpair_2d(grid, tol=0.0)


def test_mask_below_five_active_nodes_rejected():
    mask = np.zeros((5, 5), dtype=bool)
    mask[1:3, 1:3] = True
    with pytest.raises(ParameterError, match="has 4 active nodes"):
        smallest_eigenpair_2d(MaskedGrid(spacing=0.25, origin=np.zeros(2), mask=mask))
    mask[3, 1] = True
    pair = smallest_eigenpair_2d(MaskedGrid(spacing=0.25, origin=np.zeros(2), mask=mask))
    assert pair.u.shape == (5,)
    assert np.all(pair.u > 0)


# ---------- the sup-norm statistic sup|u| rho (D/rho)^(1/6) ----------


def test_statistic_scale_invariance():
    vals = []
    for side, spacing in ((1.0, 1.0 / 64.0), (3.0, 3.0 / 64.0)):
        pair = smallest_eigenpair_2d(rasterize(square(side), spacing), tol=1e-7)
        rho, dm = side / 2.0, side * math.sqrt(2.0)
        vals.append(float(np.max(np.abs(pair.u))) * rho * (dm / rho) ** (1.0 / 6.0))
    assert vals[1] == pytest.approx(vals[0], rel=1e-6)


# ---------- pipeline._gj_profile_error on a 2D ground state ----------


@pytest.fixture(scope="module")
def rect_pair():
    poly2, hf = normalize_gj(rectangle(8.0, 1.0))
    grid = rasterize(poly2, 1.0 / 64.0)
    pair = smallest_eigenpair_2d(grid, tol=1e-7)
    profile = smallest_eigenpair(gj_potential(hf))
    return hf, pair, profile


def test_rectangle_profile_separates(rect_pair):
    hf, pair, profile = rect_pair
    err = _gj_profile_error(pair, hf, profile, localization_scale(hf))
    assert 0.0 <= err <= 1e-2


def test_profile_error_empty_window(rect_pair):
    _, pair, _ = rect_pair
    far = HeightFunction(
        a=20.0,
        b=24.0,
        h=np.ones(300),
        f1=np.zeros(300),
        f2=np.ones(300),
    )
    profile = smallest_eigenpair(gj_potential(far))
    with pytest.raises(ParameterError):
        _gj_profile_error(pair, far, profile, localization_scale(far))


def test_profile_grid_mismatch_rejected(rect_pair):
    hf, pair, profile = rect_pair
    other = HeightFunction(a=0.0, b=8.0, h=np.ones(30), f1=np.zeros(30), f2=np.ones(30))
    with pytest.raises(ParameterError):
        _gj_profile_error(pair, other, profile, localization_scale(other))


def test_profile_error_level_never_reached(rect_pair):
    _, pair, _ = rect_pair
    low = HeightFunction(a=0.0, b=8.0, h=np.full(300, 0.5), f1=np.zeros(300), f2=np.full(300, 0.5))
    profile = smallest_eigenpair(gj_potential(low))
    with pytest.raises(ParameterError, match="never reaches"):
        _gj_profile_error(pair, low, profile, 2.0)
