import gc
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import ndimage
from scipy.fft import dstn, idstn
from scipy.sparse.linalg import eigsh
from scipy.spatial import ConvexHull

from specgap import eigensolve2d
from specgap.convexdomain import (
    ConvexPolygon,
    HeightFunction,
    generate_family,
    gj_potential,
    inradius,
    normalize_gj,
)
from specgap.eigensolve1d import smallest_eigenpair
from specgap.eigensolve2d import (
    _FMG_MIN_NODES,
    MAX_GRID_NODES,
    Eigenpair2D,
    MaskedGrid,
    _box_inverse,
    _components,
    _dirichlet_symbol,
    _multigrid,
    gj_profile_error,
    rasterize,
    smallest_eigenpair_2d,
    vdberg_statistic,
)
from specgap.errors import GeometryError, NumericError, ParameterError

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


def thin_strip():
    # a 127 x 7 active strip in a 129 x 33 box: the shorter side has 32
    # intervals, so the V-cycle coarsens 3 times to spacing 8 h, and no
    # node (8 i, 8 j) lies in columns 1..7
    mask = np.zeros((129, 33), dtype=bool)
    mask[1:128, 1:8] = True
    assert not mask[::8, ::8].any()
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


@pytest.mark.parametrize("shape", [(5, 5), (4, 6), (7, 4), (129, 5), (6, 65), (1, 3), (2, 2)])
def test_box_inverse_matches_scipy_dst(shape):
    x = np.random.default_rng(3).standard_normal(shape)
    symbol = np.add.outer(*(_dirichlet_symbol(m, 1.0) for m in shape))
    expected = idstn(dstn(x, type=1) / symbol, type=1)
    got = _box_inverse(shape)(x)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


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
    assert pair.residual <= 1e-8


def test_disk_matches_bessel_ground_state():
    grid = rasterize(disk_polygon(), 1.0 / 128.0)
    pair = smallest_eigenpair_2d(grid, tol=1e-7)
    assert pair.lambda1 == pytest.approx(DISK_LAMBDA, rel=5e-3)
    ratio = float(np.max(np.abs(pair.u)))
    assert ratio == pytest.approx(DISK_SUP_RATIO, rel=5e-3)
    assert vdberg_statistic(pair, 1.0, 2.0) == pytest.approx(DISK_STATISTIC, rel=5e-3)


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
        recursed += min(_multigrid(grid.mask, grid.spacing**2)[2].shape) >= _FMG_MIN_NODES
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
        # 513 nodes along x, a DST-I length of 4 * 257 before padding; the
        # border nodes lie on the rectangle's edges and stay inactive
        (rasterize(rectangle(8.0, 1.0), 1.0 / 64.0), (511, 63)),
        # active cells fill the bounding box, so the preconditioner is exact
        (
            MaskedGrid(spacing=1.0 / 64.0, origin=np.zeros(2), mask=np.ones((63, 31), dtype=bool)),
            (63, 31),
        ),
        (thin_strip(), (127, 7)),
    ],
    ids=["prime-dst-axis", "fills-box", "empty-coarsest"],
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


def test_cone_converges_in_few_iterations():
    # the box-only preconditioner took 125 iterations here, the V-cycle from
    # an all-ones start 23, and from the full-multigrid start 14
    pair = smallest_eigenpair_2d(rasterize(generate_family("cone", 16.0), 1.0 / 64.0))
    assert 0 < pair.iterations <= 16


@pytest.mark.parametrize(
    "grid",
    [rasterize(generate_family("cone", 8.0), 1.0 / 16.0), thin_strip()],
    ids=["cone", "empty-coarsest"],
)
def test_vcycle_is_symmetric_positive_definite(grid):
    apply_a, vcycle, _, _ = _multigrid(grid.mask, grid.spacing**2)
    masked = _masked_laplacian(grid)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x, y = rng.standard_normal((2, grid.activeCount))
        mx, my = vcycle(x), vcycle(y)
        # the cycle runs in float32, so it is symmetric to float32 rounding
        assert mx @ y == pytest.approx(x @ my, rel=1e-5)
        assert mx @ x > 0.0
        # the operator keeps float64 arrays of its own and stays exact
        np.testing.assert_allclose(apply_a(x), masked @ x, rtol=1e-12, atol=1e-9)


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


def test_unreachable_tolerance_raises():
    grid = rasterize(square(), 1.0 / 16.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            smallest_eigenpair_2d(grid, tol=1e-15, max_outer=1)


def test_bad_tolerance_rejected():
    grid = rasterize(square(), 1.0 / 16.0)
    with pytest.raises(ParameterError):
        smallest_eigenpair_2d(grid, tol=0.0)


def test_mask_below_five_active_nodes_rejected():
    # below five unknowns scipy's lobpcg falls back to a dense solve
    mask = np.zeros((5, 5), dtype=bool)
    mask[1:3, 1:3] = True
    with pytest.raises(ParameterError, match="has 4 active nodes"):
        smallest_eigenpair_2d(MaskedGrid(spacing=0.25, origin=np.zeros(2), mask=mask))
    mask[3, 1] = True
    pair = smallest_eigenpair_2d(MaskedGrid(spacing=0.25, origin=np.zeros(2), mask=mask))
    assert pair.u.shape == (5,)
    assert np.all(pair.u > 0)


# ---------- vdberg_statistic ----------


def test_statistic_formula(square_pair):
    _, pair = square_pair
    sup = float(np.max(np.abs(pair.u)))
    expect = sup * 0.5 * (math.sqrt(2.0) / 0.5) ** (1.0 / 6.0)
    assert vdberg_statistic(pair, 0.5, math.sqrt(2.0)) == pytest.approx(expect, rel=1e-12)
    # unit square sup ratio tends to 2 (product of sines)
    assert sup == pytest.approx(2.0, rel=1e-3)


def test_statistic_rejects_bad_scales(square_pair):
    _, pair = square_pair
    with pytest.raises(ParameterError):
        vdberg_statistic(pair, 0.0, 1.0)
    with pytest.raises(ParameterError):
        vdberg_statistic(pair, 1.0, -2.0)


def test_statistic_scale_invariance():
    vals = []
    for side, spacing in ((1.0, 1.0 / 64.0), (3.0, 3.0 / 64.0)):
        pair = smallest_eigenpair_2d(rasterize(square(side), spacing), tol=1e-7)
        vals.append(vdberg_statistic(pair, side / 2.0, side * math.sqrt(2.0)))
    assert vals[1] == pytest.approx(vals[0], rel=1e-6)


# ---------- gj_profile_error ----------


@pytest.fixture(scope="module")
def rect_pair():
    poly2, hf = normalize_gj(rectangle(8.0, 1.0))
    grid = rasterize(poly2, 1.0 / 64.0)
    pair = smallest_eigenpair_2d(grid, tol=1e-7)
    profile = smallest_eigenpair(gj_potential(hf))
    return hf, pair, profile


def test_rectangle_profile_separates(rect_pair):
    hf, pair, profile = rect_pair
    err = gj_profile_error(pair, hf, profile)
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
        gj_profile_error(pair, far, profile)


def test_profile_grid_mismatch_rejected(rect_pair):
    hf, pair, profile = rect_pair
    other = HeightFunction(a=0.0, b=8.0, h=np.ones(30), f1=np.zeros(30), f2=np.ones(30))
    with pytest.raises(ParameterError):
        gj_profile_error(pair, other, profile)
