import gc
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import ndimage
from scipy.sparse.linalg import eigsh

from specgap.convexdomain import (
    ConvexPolygon,
    HeightFunction,
    generate_family,
    gj_potential,
    normalize_gj,
)
from specgap.eigensolve1d import discretize, smallest_eigenpair
from specgap.eigensolve2d import (
    Eigenpair2D,
    MaskedGrid,
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
    # the box-only preconditioner took 125 iterations here
    pair = smallest_eigenpair_2d(rasterize(generate_family("cone", 16.0), 1.0 / 64.0))
    assert 0 < pair.iterations <= 45


@pytest.mark.parametrize(
    "grid",
    [rasterize(generate_family("cone", 8.0), 1.0 / 16.0), thin_strip()],
    ids=["cone", "empty-coarsest"],
)
def test_vcycle_is_symmetric_positive_definite(grid):
    apply_a, vcycle = _multigrid(grid.mask, grid.spacing**2)
    masked = _masked_laplacian(grid)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x, y = rng.standard_normal((2, grid.activeCount))
        mx, my = vcycle(x), vcycle(y)
        assert mx @ y == pytest.approx(x @ my, rel=1e-12)
        assert mx @ x > 0.0
        # the operator shares the cycle's finest arrays and stays exact
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
    profile = smallest_eigenpair(discretize(gj_potential(hf)))
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
    profile = smallest_eigenpair(discretize(gj_potential(far)))
    with pytest.raises(ParameterError):
        gj_profile_error(pair, far, profile)


def test_profile_grid_mismatch_rejected(rect_pair):
    hf, pair, profile = rect_pair
    other = HeightFunction(a=0.0, b=8.0, h=np.ones(30), f1=np.zeros(30), f2=np.ones(30))
    with pytest.raises(ParameterError):
        gj_profile_error(pair, other, profile)
