import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from specgap import convexdomain
from specgap.convexdomain import (
    MAX_GRID_NODES,
    ConvexPolygon,
    HeightFunction,
    diameter,
    generate_family,
    gj_potential,
    inradius,
    localization_scale,
    minimal_width,
    normalize_gj,
)
from specgap.eigensolve2d import rasterize
from specgap.errors import GeometryError, ParameterError

PI2 = math.pi**2


def square(side=1.0):
    return ConvexPolygon(
        vertices=np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    )


def rectangle(w, h):
    return ConvexPolygon(vertices=np.array([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]]))


def regular_polygon(k, radius=1.0):
    ang = 2 * np.pi * np.arange(k) / k
    return ConvexPolygon(vertices=np.column_stack([radius * np.cos(ang), radius * np.sin(ang)]))


def rigid(poly, angle, shift):
    R = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return ConvexPolygon(vertices=poly.vertices @ R.T + np.asarray(shift))


# ---------- polygon validation ----------


def test_polygon_rejects_clockwise():
    with pytest.raises(GeometryError):
        ConvexPolygon(vertices=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))


def test_polygon_rejects_nonconvex():
    with pytest.raises(GeometryError):
        ConvexPolygon(
            vertices=np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.2], [1.0, 1.0]])
        )


def test_polygon_rejects_too_few_or_repeated():
    with pytest.raises(GeometryError):
        ConvexPolygon(vertices=np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(GeometryError):
        ConvexPolygon(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        )


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([[0.0, 0.0], [1.0, 0.0], [0.5, math.nan]], "vertices must be finite"),
        ([[0.0, 0.0], [math.inf, 0.0], [0.5, 1.0]], "vertices must be finite"),
        ([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]], "zero extent"),
        # collinear: every turn is zero, so only the signed area rejects it
        ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], "vertex order is clockwise or degenerate"),
    ],
    ids=["nan", "inf", "one-point", "collinear"],
)
def test_polygon_rejects_degenerate_vertices(vertices, message):
    with pytest.raises(GeometryError, match=message):
        ConvexPolygon(vertices=np.array(vertices))


@pytest.mark.parametrize(
    "a, b, h, f1, message",
    [
        (0.0, 0.0, np.ones(5), np.zeros(5), "finite interval with b > a"),
        (0.0, math.inf, np.ones(5), np.zeros(5), "finite interval with b > a"),
        (0.0, 1.0, np.ones(4), np.zeros(4), "equal-length arrays of 5\\+ samples"),
        (0.0, 1.0, np.ones(5), np.zeros(6), "equal-length arrays"),
        (0.0, 1.0, np.ones((5, 5)), np.zeros((5, 5)), "equal-length arrays"),
        (0.0, 1.0, [1.0, 1.0, math.nan, 1.0, 1.0], np.zeros(5), "must be finite"),
        (0.0, 1.0, np.ones(5), [0.0, 0.0, math.inf, 0.0, 0.0], "must be finite"),
        (0.0, 1.0, [1.0, 1.0, -1e-6, 1.0, 1.0], np.zeros(5), "must be nonnegative"),
    ],
    ids=["empty-interval", "infinite-interval", "four-samples", "unequal", "2d", "nan", "inf-f1", "crossing"],
)
def test_height_function_rejects_bad_samples(a, b, h, f1, message):
    with pytest.raises(ParameterError, match=message):
        HeightFunction(a=a, b=b, h=h, f1=f1)


# ---------- diameter / inradius ----------


def test_diameter_unit_square():
    assert diameter(square()) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_diameter_hexagon_side_one():
    assert diameter(regular_polygon(6, radius=1.0)) == pytest.approx(2.0, rel=1e-12)


def test_inradius_unit_square():
    assert inradius(square()) == pytest.approx(0.5, abs=1e-9)


def test_inradius_equilateral_side_one():
    tri = ConvexPolygon(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    )
    assert inradius(tri) == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-9)


def test_inradius_degenerate_polygon():
    with pytest.raises(GeometryError):
        inradius(
            ConvexPolygon(
                vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-14], [1.0, 1e-14]])
            )
        )


def test_equal_neighbouring_normals_never_collapse():
    # two equal normals make the 3 x 3 system singular: parallel lines that
    # move together never meet the third
    normals = np.array([[0.0, -1.0], [0.0, -1.0], [1.0, 0.0]])
    assert convexdomain._collapse_time(normals, np.zeros(3), 0, 1, 2) == math.inf
    assert convexdomain._collapse_time(normals, np.zeros(3), 2, 0, 1) == math.inf


def test_rigid_motion_invariance():
    p = rectangle(3.0, 1.0)
    q = rigid(p, 0.7, (5.0, -2.0))
    assert inradius(q) == pytest.approx(inradius(p), abs=1e-9)
    assert diameter(q) == pytest.approx(diameter(p), rel=1e-12)
    assert minimal_width(q)[0] == pytest.approx(1.0, abs=1e-9)


def test_scaling_exact():
    p = regular_polygon(7)
    t = 3.5
    q = ConvexPolygon(vertices=p.vertices * t)
    assert diameter(q) == pytest.approx(t * diameter(p), rel=1e-12)
    assert inradius(q) == pytest.approx(t * inradius(p), rel=1e-9)


def chebyshev_radius(poly):
    # the reference: the largest disk inside every edge half-plane, by LP
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    outward = np.column_stack([e[:, 1], -e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])[:, None]
    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=np.column_stack([outward, np.ones(len(v))]),
        b_ub=np.sum(outward * v, axis=1),
        bounds=[(None, None), (None, None), (0.0, None)],
        method="highs",
    )
    assert res.success
    return float(res.x[2])


@pytest.mark.parametrize(
    "kind, D",
    [
        (kind, D)
        for kind in ("cone", "stadium", "isoTriangle")
        for D in (2.5, 4.0, 10.0, 16.0, 64.0, 256.0, 1000.0)
        if kind != "isoTriangle" or D * D > 12.0  # no unit-incircle triangle shorter
    ],
)
def test_inradius_matches_linprog_on_families(kind, D):
    poly = generate_family(kind, D)
    assert inradius(poly) == pytest.approx(chebyshev_radius(poly), rel=1e-12)


def test_inradius_matches_linprog_on_random_hulls():
    rng = np.random.default_rng(20260418)
    for _ in range(240):
        count = int(rng.integers(3, 80))
        pts = rng.normal(size=(count, 2)) * rng.uniform(0.01, 100.0, size=2)
        pts = pts @ np.linalg.qr(rng.normal(size=(2, 2)))[0] + rng.uniform(-5.0, 5.0, size=2)
        poly = ConvexPolygon(vertices=pts[ConvexHull(pts).vertices])
        assert inradius(poly) == pytest.approx(chebyshev_radius(poly), rel=1e-12)


def test_inradius_rectangle_with_split_edge():
    # the bottom edge is two collinear edges: their lines coincide, so
    # one of them is merged into the other before any edge collapses
    for w, h, cut in ((3.0, 1.0, 1.0), (3.0, 4.0, 0.5), (1.0, 1.0, 0.25)):
        poly = ConvexPolygon(
            vertices=np.array([[0.0, 0.0], [cut, 0.0], [w, 0.0], [w, h], [0.0, h]])
        )
        assert inradius(poly) == pytest.approx(0.5 * min(w, h), rel=1e-14)
        # rotated, the two normals may differ in their last bits
        for angle in (0.3, 1.0, 2.5):
            assert inradius(rigid(poly, angle, (1.0, -2.0))) == pytest.approx(
                0.5 * min(w, h), rel=1e-12
            )


@pytest.mark.parametrize("pieces", [2, 3, 7])
def test_inradius_rectangle_with_split_short_sides(pieces):
    # both short sides, which set the radius, are split into collinear
    # edges; left unmerged, no split edge would ever collapse and the
    # long sides would be timed against the far walls, giving 1.5
    cuts = np.linspace(0.0, 1.0, pieces + 1)[1:-1]
    right = [[3.0, y] for y in cuts]
    left = [[0.0, y] for y in cuts[::-1]]
    poly = ConvexPolygon(
        vertices=np.array([[0.0, 0.0], [3.0, 0.0], *right, [3.0, 1.0], [0.0, 1.0], *left])
    )
    assert inradius(poly) == pytest.approx(0.5, rel=1e-14)
    for angle in (0.3, 1.0, 2.5):
        assert inradius(rigid(poly, angle, (1.0, -2.0))) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("bend", [1e-9, 1e-7, 1e-4])
def test_inradius_slightly_bent_edge(bend):
    # a bottom edge bent outward at its midpoint is two lines, not one:
    # the disk centred at x = 1.5 touches both of them and the top, so
    # r = 1.5 (bend + 1 - r) / s with s the length of either bottom edge;
    # merging the two lines would put it at 0.5.  (The LP reference is off
    # by 5e-10 at bend 1e-9, within its solver's feasibility tolerance.)
    poly = ConvexPolygon(
        vertices=np.array([[0.0, 0.0], [1.5, -bend], [3.0, 0.0], [3.0, 1.0], [0.0, 1.0]])
    )
    s = math.hypot(1.5, bend)
    assert inradius(poly) == pytest.approx(1.5 * (1.0 + bend) / (s + 1.5), rel=1e-14)


def test_inradius_truncated_triangle():
    # the cut y = 2 meets its neighbours' lines above itself, at negative
    # time, so it never collapses; the disk of radius 1 at (1, 1) touches
    # the cut, the base and the left side, short of the triangle's incircle
    poly = ConvexPolygon(vertices=np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 2.0], [0.0, 2.0]]))
    assert inradius(poly) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 12, 64, 256, 1000, 100_000])
def test_inradius_regular_polygons(k):
    # at 100,000 sides neighbouring normals differ by 6e-5, and the three-
    # line systems have determinants near (2 pi / k)^3, about 2.5e-13
    assert inradius(regular_polygon(k, radius=2.5)) == pytest.approx(
        2.5 * math.cos(math.pi / k), rel=1e-13
    )


# ---------- normalize_gj ----------


def test_normalize_axis_aligned_rectangle():
    poly2, hf = normalize_gj(rectangle(4.0, 1.0))
    assert hf.a == pytest.approx(0.0, abs=1e-12)
    assert hf.b == pytest.approx(4.0, abs=1e-9)
    assert np.max(np.abs(hf.h - 1.0)) < 1e-9
    assert np.max(np.abs(hf.f1)) < 1e-9
    assert np.max(np.abs(hf.f1 + hf.h - 1.0)) < 1e-9
    ys = poly2.vertices[:, 1]
    assert ys.min() == pytest.approx(0.0, abs=1e-12)
    assert ys.max() == pytest.approx(1.0, abs=1e-12)


def test_normalize_rotated_rectangle_matches():
    poly2, hf = normalize_gj(rigid(rectangle(4.0, 1.0), np.pi / 6.0, (2.0, 7.0)))
    assert hf.b - hf.a == pytest.approx(4.0, abs=1e-6)
    assert np.max(np.abs(hf.h - 1.0)) < 1e-6


def test_normalize_cone_height_profile():
    poly2, hf = normalize_gj(generate_family("cone", 10.0))
    x = np.linspace(hf.a, hf.b, len(hf.h))
    # disk end on the left by convention: profile peaks near x = 0.5 and
    # decays to zero at the apex on the right
    peak = x[int(np.argmax(hf.h))]
    assert 0.3 < peak < 0.8
    assert hf.h[0] < 0.1
    assert hf.h[-1] < 0.05
    assert np.max(hf.h) == pytest.approx(1.0, abs=1e-3)
    assert np.min(hf.f1) == pytest.approx(0.0, abs=1e-3)
    assert np.max(hf.f1 + hf.h) == pytest.approx(1.0, abs=1e-3)
    f1, f2 = convexdomain._boundary_graphs(poly2.vertices, hf.nodes())
    assert np.all(f1 <= f2 + 1e-12)
    assert np.all(hf.f1 >= -1e-3) and np.all(hf.f1 + hf.h <= 1.0 + 1e-3)
    # h concave up to sampling noise
    dd = np.diff(hf.h, 2)
    assert dd.max() < 1e-3
    # linear decay toward the apex: on the straight section h(x) = c (b - x)
    k1, k2 = int(0.65 * len(x)), int(0.85 * len(x))
    assert hf.h[k1] / hf.h[k2] == pytest.approx(
        (hf.b - x[k1]) / (hf.b - x[k2]), rel=0.02
    )


def mirror_test_polygons():
    """The three families at D=8 and 16, then 40 seeded random hulls."""
    polys = [generate_family(kind, d) for kind in ("cone", "stadium", "isoTriangle")
             for d in (8.0, 16.0)]
    rng = np.random.default_rng(31)
    for _ in range(40):
        pts = rng.normal(size=(int(rng.integers(3, 30)), 2)) * rng.uniform(0.3, 3.0, size=2)
        polys.append(ConvexPolygon(vertices=pts[ConvexHull(pts).vertices]))
    return polys


def test_normalize_flip_convention_deterministic():
    # a mirrored input gives the same height profile up to rounding and the
    # same interior mask, hence the same 2D operator and lambda1
    for p in mirror_test_polygons():
        mirrored = ConvexPolygon(vertices=(p.vertices * np.array([-1.0, 1.0]))[::-1])
        p1, hf1 = normalize_gj(p, resolution=128)
        p2, hf2 = normalize_gj(mirrored, resolution=128)
        assert len(hf1.h) == len(hf2.h)
        assert np.max(np.abs(hf1.h - hf2.h)) < 1e-12
        g1, g2 = rasterize(p1, 1.0 / 32.0), rasterize(p2, 1.0 / 32.0)
        assert np.array_equal(g1.mask, g2.mask)


# ---------- gj_potential ----------


def manual_hf(h, a=0.0, b=1.0):
    h = np.asarray(h, dtype=float)
    return HeightFunction(a=a, b=b, h=h, f1=np.zeros_like(h))


def test_gj_potential_constant_height():
    hf = manual_hf(np.ones(101), b=4.0)
    g = gj_potential(hf)
    np.testing.assert_allclose(g.values, PI2, rtol=1e-14)
    assert g.a == 0.0 and g.b == 4.0


def test_gj_potential_half_height_node():
    h = np.ones(101)
    h[50] = 0.5
    g = gj_potential(manual_hf(h))
    assert g.values[50] == pytest.approx(4 * PI2, rel=1e-14)


def test_gj_potential_caps_near_zero_height():
    n = 200
    x = np.linspace(0.0, 1.0, n + 2)
    h = np.clip(1.0 - x, 0.0, 1.0)
    g = gj_potential(manual_hf(h))
    dx = 1.0 / (n + 1)
    cap = PI2 / (2.0 * dx) ** 2
    assert np.all(np.isfinite(g.values))
    assert g.values[-1] == pytest.approx(cap, rel=1e-14)
    assert g.values.max() <= cap * (1 + 1e-15)


# ---------- localization_scale ----------


def test_localization_constant_height():
    hf = manual_hf(np.ones(300), b=4.0)
    assert localization_scale(hf) == pytest.approx(4.0, abs=1e-9)


def test_localization_full_tent():
    # h = 1 - |x - m|/m on [0, 2m]: threshold run has length 2m/L^2, so
    # the fixed point is (2m)^(1/3)
    m = 4.0
    n = 1999
    x = np.linspace(0.0, 2 * m, n + 2)
    h = 1.0 - np.abs(x - m) / m
    hf = manual_hf(h, b=2 * m)
    assert localization_scale(hf) == pytest.approx(2.0, abs=0.02)


def test_localization_half_tent():
    m = 8.0
    n = 3999
    x = np.linspace(0.0, m, n + 2)
    hf = manual_hf(1.0 - x / m, b=m)
    assert localization_scale(hf) == pytest.approx(2.0, abs=0.02)


def reference_localization_scale(hf):
    # the former loop: all 100 bisection steps, whether or not they move
    span = hf.b - hf.a

    def excess(scale):
        start, stop = convexdomain.longest_run(hf.h >= 1.0 - 1.0 / (scale * scale))
        return min((stop - start) * hf.dx, span) - scale

    if excess(span) >= 0.0:
        return span
    lo, hi = min(1e-3, 0.5 * span), span
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_localization_stops_where_the_full_bisection_ends(monkeypatch):
    # the bracket stops moving after 53 to 57 steps on these families; the
    # early stop must return the 100-step loop's float to the bit
    runs = []
    longest_run = convexdomain.longest_run

    def counting(mask):
        runs.append(1)
        return longest_run(mask)

    for kind in ("cone", "stadium", "isoTriangle"):
        for d in (8.0, 16.0, 32.0, 64.0, 128.0, 256.0):
            hf = normalize_gj(generate_family(kind, d))[1]
            expected = reference_localization_scale(hf)
            monkeypatch.setattr(convexdomain, "longest_run", counting)
            runs.clear()
            assert localization_scale(hf) == expected
            monkeypatch.setattr(convexdomain, "longest_run", longest_run)
            assert len(runs) < 60


def test_localization_requires_unit_peak():
    hf = manual_hf(np.full(100, 0.5))
    with pytest.raises(ParameterError):
        localization_scale(hf)


# ---------- generate_family ----------


def test_cone_family_geometry():
    p = generate_family("cone", 10.0)
    assert inradius(p) == pytest.approx(1.0, abs=1e-3)
    assert diameter(p) == pytest.approx(10.0, abs=1e-3)


def test_stadium_geometry_and_flat_run():
    p = generate_family("stadium", 10.0)
    assert diameter(p) == pytest.approx(10.0, abs=1e-9)
    assert inradius(p) == pytest.approx(1.0, abs=1e-3)
    _, hf = normalize_gj(p)
    # mid-section is a rectangle of raw length D-2 = 8; the normalization
    # dilates by 1/2 (min width 2 -> 1), leaving a flat run of length 4
    x = np.linspace(hf.a, hf.b, len(hf.h))
    run = x[hf.h >= 1.0 - 1e-6]
    assert run.max() - run.min() == pytest.approx((10.0 - 2.0) / 2.0, abs=0.05)


def test_cone_vertices_match_qhull():
    # the closed-form hull keeps qhull's vertex order, so every downstream
    # tie-break (minimal_width, normalize_gj) sees the same polygon
    ang = 2.0 * np.pi * np.arange(256) / 256.0
    disk = np.column_stack([np.cos(ang), np.sin(ang)])
    for D in np.linspace(2.0, 200.0, 1005)[1:]:
        pts = np.vstack([disk, [D - 1.0, 0.0]])
        assert np.array_equal(generate_family("cone", D).vertices, pts[ConvexHull(pts).vertices])


@pytest.mark.parametrize("D", [3.5, 4.0, 8.0, 16.0, 64.0, 256.0, 1e4])
def test_iso_triangle_unit_inradius(D):
    p = generate_family("isoTriangle", D)
    assert inradius(p) == pytest.approx(1.0, rel=1e-12)
    assert np.hypot(*(p.vertices[1] - p.vertices[0])) == pytest.approx(D, rel=1e-14)


def test_iso_triangle_beyond_float_precision():
    # the half-base 1 + 1/D rounds to 1: no root in (1, D/2] is left
    with pytest.raises(GeometryError, match="beyond float precision"):
        generate_family("isoTriangle", 1e17)


def test_iso_triangle_geometry():
    p = generate_family("isoTriangle", 10.0)
    assert len(p.vertices) == 3
    assert inradius(p) == pytest.approx(1.0, abs=1e-6)
    assert diameter(p) == pytest.approx(10.0, abs=1e-6)


def test_family_rejects_small_d():
    for kind in ("cone", "stadium", "isoTriangle"):
        with pytest.raises(ParameterError):
            generate_family(kind, 2.0)
    with pytest.raises(ParameterError):
        generate_family("blob", 10.0)


def test_iso_triangle_infeasible_small_d():
    with pytest.raises(GeometryError):
        generate_family("isoTriangle", 3.0)


def test_family_members_normalize_cleanly():
    for kind in ("cone", "stadium", "isoTriangle"):
        p = generate_family(kind, 12.0)
        _, hf = normalize_gj(p)
        assert np.max(hf.h) == pytest.approx(1.0, abs=1e-3)
        assert np.min(hf.f1) == pytest.approx(0.0, abs=1e-3)
        assert np.max(hf.f1 + hf.h) == pytest.approx(1.0, abs=1e-3)
        assert np.all(hf.f1 >= -1e-3) and np.all(hf.f1 + hf.h <= 1 + 1e-3)


def test_normalize_gj_node_cap():
    # a 131072 x 1 rectangle at resolution 256 has round(131072 * 256) + 1
    # = MAX_GRID_NODES + 1 profile nodes: rejected before any is allocated
    assert 131072 * 256 + 1 == MAX_GRID_NODES + 1
    with pytest.raises(ParameterError, match="MAX_GRID_NODES"):
        normalize_gj(rectangle(131072.0, 1.0), resolution=256)
    with pytest.raises(ParameterError, match="MAX_GRID_NODES"):
        normalize_gj(rectangle(1e11, 1.0), resolution=4096)


def test_normalize_gj_node_cap_is_inclusive(monkeypatch):
    # 4 x 1 at resolution 8: 33 profile nodes, the cap itself passes
    monkeypatch.setattr(convexdomain, "MAX_GRID_NODES", 33)
    assert normalize_gj(rectangle(4.0, 1.0), resolution=8)[1].h.size == 33
    monkeypatch.setattr(convexdomain, "MAX_GRID_NODES", 32)
    with pytest.raises(ParameterError, match="more than MAX_GRID_NODES = 32"):
        normalize_gj(rectangle(4.0, 1.0), resolution=8)


def clipped_graphs(v, x):
    # the former per-edge sampler: clip x to every edge, min/max over the
    # edges, and edges within eps of vertical taken as vertical
    lo = np.full(x.shape, np.inf)
    hi = np.full(x.shape, -np.inf)
    eps = 1e-9 * max(1.0, float(x[-1] - x[0]))
    for (px, py), (qx, qy) in zip(v, np.roll(v, -1, axis=0)):
        if abs(qx - px) > eps:
            left, right = (px, qx) if px < qx else (qx, px)
            sel = (x >= left - eps) & (x <= right + eps)
            ys = py + (np.clip(x[sel], left, right) - px) * ((qy - py) / (qx - px))
            lo[sel] = np.minimum(lo[sel], ys)
            hi[sel] = np.maximum(hi[sel], ys)
        else:
            sel = np.abs(x - 0.5 * (px + qx)) <= eps
            lo[sel] = np.minimum(lo[sel], min(py, qy))
            hi[sel] = np.maximum(hi[sel], max(py, qy))
    return lo, hi


def assert_graphs_match_clipped(v, x, tol=2e-16):
    # near a vertex the clipped min/max of two edges misses the vertex's own
    # y by rounding, by at most tol; elsewhere the two agree bit for bit
    f1, f2 = convexdomain._boundary_graphs(v, x)
    lo, hi = clipped_graphs(v, x)
    eps = 1e-9 * max(1.0, float(x[-1] - x[0]))
    xs = np.sort(v[:, 0])
    k = np.searchsorted(xs, x)
    near = np.minimum(
        np.abs(x - xs[np.maximum(k - 1, 0)]), np.abs(x - xs[np.minimum(k, xs.size - 1)])
    ) <= eps
    assert np.array_equal(f1[~near], lo[~near]) and np.array_equal(f2[~near], hi[~near])
    assert np.max(np.abs(f1 - lo)) <= tol and np.max(np.abs(f2 - hi)) <= tol
    return near


@pytest.mark.parametrize("kind", ["cone", "stadium", "isoTriangle"])
def test_boundary_graphs_match_clipped_on_families(kind):
    near = 0
    for D, resolution in ((4.0, 1024), (8.0, 16), (16.0, 256), (64.0, 1024), (1000.0, 16)):
        poly2, hf = normalize_gj(generate_family(kind, D), resolution=resolution)
        near += assert_graphs_match_clipped(poly2.vertices, hf.nodes()).sum()
    assert near > 0  # the end nodes sit on vertices


def test_boundary_graphs_match_clipped_on_random_hulls():
    rng = np.random.default_rng(19)
    for _ in range(300):
        pts = rng.normal(size=(int(rng.integers(3, 30)), 2)) * rng.uniform(0.05, 3.0, size=2)
        v = pts[ConvexHull(pts).vertices]
        x = np.linspace(v[:, 0].min(), v[:, 0].max(), int(rng.integers(5, 2000)))
        assert_graphs_match_clipped(v, x, tol=4 * np.spacing(np.abs(v[:, 1]).max()))
        poly2, hf = normalize_gj(ConvexPolygon(vertices=v), resolution=int(rng.integers(8, 512)))
        assert_graphs_match_clipped(poly2.vertices, hf.nodes())


@pytest.mark.parametrize("angle", [0.0, np.pi / 6.0, 1.0])
def test_boundary_graphs_span_vertical_ends(angle):
    # the short sides end up vertical only up to rounding once rotated; the
    # end nodes must still see the whole side
    _, hf = normalize_gj(rigid(rectangle(8.0, 1.0), angle, (2.0, 7.0)), resolution=16)
    assert np.max(np.abs(hf.h - 1.0)) < 1e-12


# ---------- 1D balancing across the cone-model family ----------


def test_cone_model_balancing_invariant():
    from specgap.eigensolve1d import smallest_eigenpair
    from specgap.sublevel import width
    from test_potential import cone_model

    for D in (16.0, 64.0, 1024.0):
        n = int(8 * D)
        x = np.linspace(0.0, D, n + 2)
        hf = manual_hf(1.0 - x / D, b=D)
        L = localization_scale(hf)
        grid = cone_model(D, n)
        w = width(grid, L**-2)
        assert 0.25 <= w / L <= 4.0
        lam = smallest_eigenpair(grid).lambda1
        assert 1.0 / 20.0 <= lam * L * L <= 20.0
