"""Convex polygon geometry feeding the width-based spectral pipeline.

Polygons are counterclockwise vertex arrays.  Normalization rotates the
thinnest support direction onto the y-axis and rescales so the transverse
extent is exactly [0, 1]; the vertical-width profile of the result drives
the one-dimensional reduction of the planar Dirichlet problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, linprog
from scipy.spatial import ConvexHull

from .errors import GeometryError, ParameterError
from .potential import PotentialGrid

_PI2 = math.pi**2


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon given by counterclockwise vertices, shape (m, 2)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise GeometryError("polygon needs at least 3 planar vertices")
        if not np.all(np.isfinite(v)):
            raise GeometryError("polygon vertices must be finite")
        scale = float(max(np.ptp(v[:, 0]), np.ptp(v[:, 1])))
        if scale <= 0.0:
            raise GeometryError("polygon has zero extent")
        edges = np.roll(v, -1, axis=0) - v
        if np.any(np.hypot(edges[:, 0], edges[:, 1]) <= 1e-12 * scale):
            raise GeometryError("repeated vertices")
        nxt = np.roll(edges, -1, axis=0)
        cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        if np.any(cross < -1e-9 * scale * scale):
            raise GeometryError("vertices are not in convex counterclockwise order")
        area2 = float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))
        if area2 <= 0.0:
            raise GeometryError("vertex order is clockwise or degenerate")
        object.__setattr__(self, "vertices", v)


@dataclass(frozen=True)
class HeightFunction:
    """Boundary graphs f1 <= f2 and their gap h on a uniform grid over [a, b]."""

    a: float
    b: float
    h: np.ndarray
    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        f1 = np.asarray(self.f1, dtype=float)
        f2 = np.asarray(self.f2, dtype=float)
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.b > self.a):
            raise ParameterError("height function needs a finite interval with b > a")
        if h.ndim != 1 or h.size < 5 or f1.shape != h.shape or f2.shape != h.shape:
            raise ParameterError("h, f1, f2 must be equal-length arrays of 5+ samples")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(f1)) and np.all(np.isfinite(f2))):
            raise ParameterError("height samples must be finite")
        if np.any(f2 < f1 - 1e-9 * max(1.0, self.b - self.a)):
            raise ParameterError("upper boundary graph dips below the lower one")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)

    @property
    def dx(self) -> float:
        return (self.b - self.a) / (self.h.size - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.h.size)


def diameter(poly: ConvexPolygon) -> float:
    """Largest pairwise vertex distance (attained at vertices for convex sets)."""
    v = poly.vertices
    d = v[:, None, :] - v[None, :, :]
    return float(np.sqrt((d * d).sum(axis=2)).max())


def minimal_width(poly: ConvexPolygon) -> tuple[float, int]:
    """Smallest support width over edge-flush directions, with its edge index.

    For a convex polygon the minimal width is always attained with one edge
    flush against the support line, so scanning edges is exhaustive.  Exact
    width ties (regular arcs, parallel sides) are broken by the largest
    extent along the edge direction, which is invariant under reflection.
    """
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    t = e / np.hypot(e[:, 0], e[:, 1])[:, None]
    dx = v[None, :, 0] - v[:, 0, None]
    dy = v[None, :, 1] - v[:, 1, None]
    dist = t[:, 0, None] * dy - t[:, 1, None] * dx
    widths = dist.max(axis=1)
    wmin = float(widths.min())
    tied = np.flatnonzero(widths <= wmin * (1.0 + 1e-12))
    if tied.size > 1:
        proj = v @ t[tied].T
        spans = proj.max(axis=0) - proj.min(axis=0)
        k = int(tied[np.argmax(spans)])
    else:
        k = int(tied[0])
    return float(widths[k]), k


def inradius(poly: ConvexPolygon) -> float:
    """Chebyshev radius: the largest disk fitting inside every edge half-plane."""
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    ln = np.hypot(e[:, 0], e[:, 1])
    outward = np.column_stack([e[:, 1], -e[:, 0]]) / ln[:, None]
    a_ub = np.column_stack([outward, np.ones(len(v))])
    b_ub = np.sum(outward * v, axis=1)
    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None), (None, None), (0.0, None)],
        method="highs",
    )
    if not res.success:
        raise GeometryError(f"Chebyshev center search failed: {res.message}")
    r = float(res.x[2])
    scale = float(max(np.ptp(v[:, 0]), np.ptp(v[:, 1])))
    if r <= 1e-9 * scale:
        raise GeometryError("degenerate polygon: near-zero inradius")
    return r


def _boundary_graphs(v: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper boundary y-values of polygon v over each vertical line x."""
    lo = np.full(x.shape, np.inf)
    hi = np.full(x.shape, -np.inf)
    eps = 1e-9 * max(1.0, float(x[-1] - x[0]))
    m = len(v)
    for i in range(m):
        px, py = v[i]
        qx, qy = v[(i + 1) % m]
        if abs(qx - px) > eps:
            left, right = (px, qx) if px < qx else (qx, px)
            sel = (x >= left - eps) & (x <= right + eps)
            xs = np.clip(x[sel], left, right)
            ys = py + (xs - px) * ((qy - py) / (qx - px))
            lo[sel] = np.minimum(lo[sel], ys)
            hi[sel] = np.maximum(hi[sel], ys)
        else:
            sel = np.abs(x - 0.5 * (px + qx)) <= eps
            lo[sel] = np.minimum(lo[sel], min(py, qy))
            hi[sel] = np.maximum(hi[sel], max(py, qy))
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise GeometryError("boundary clipping left uncovered grid nodes")
    return lo, hi


def normalize_gj(
    poly: ConvexPolygon, resolution: int = 256
) -> tuple[ConvexPolygon, HeightFunction]:
    """Rotate the thinnest direction onto y and rescale it to [0, 1].

    The boundary graphs f1, f2 are sampled by vertical-line clipping on a
    uniform x-grid with spacing about 1/resolution.  If the widest section
    would land in the right half, the polygon is mirrored in x first, so
    reflected inputs produce identical profiles.
    """
    if resolution < 1:
        raise ParameterError(f"resolution must be at least 1, got {resolution}")
    _, k = minimal_width(poly)
    v = poly.vertices
    edge = v[(k + 1) % len(v)] - v[k]
    t = edge / math.hypot(edge[0], edge[1])
    rot = np.array([[t[0], t[1]], [-t[1], t[0]]])
    w = v @ rot.T
    ymin = w[:, 1].min()
    s = 1.0 / (w[:, 1].max() - ymin)
    u = (w - [w[:, 0].min(), ymin]) * s
    length = float(u[:, 0].max())
    n = max(4, int(round(length * resolution)) - 1)
    x = np.linspace(0.0, length, n + 2)
    f1, f2 = _boundary_graphs(u, x)
    h = np.maximum(f2 - f1, 0.0)
    if int(np.argmax(h)) > (h.size - 1) / 2:
        u = u[::-1].copy()
        u[:, 0] = length - u[:, 0]
        f1 = f1[::-1].copy()
        f2 = f2[::-1].copy()
        h = h[::-1].copy()
    return ConvexPolygon(vertices=u), HeightFunction(a=0.0, b=length, h=h, f1=f1, f2=f2)


def gj_potential(hf: HeightFunction) -> PotentialGrid:
    """Transverse-mode potential pi^2/h^2, capped where h dips under two cells.

    Below two grid spacings the one-dimensional reduction has no resolution
    left, so the height is floored there and the cap acts as a hard wall.
    """
    floor = 2.0 * hf.dx
    clipped = np.maximum(hf.h, floor)
    return PotentialGrid(a=hf.a, b=hf.b, values=_PI2 / clipped**2, cap=_PI2 / floor**2)


def longest_run(mask: np.ndarray) -> tuple[int, int]:
    """(start, stop) of the first longest run of True in mask; (0, 0) if none."""
    d = np.diff(np.concatenate(([False], mask, [False])).astype(np.int8))
    starts = np.flatnonzero(d == 1)
    if starts.size == 0:
        return 0, 0
    ends = np.flatnonzero(d == -1)
    k = int(np.argmax(ends - starts))
    return int(starts[k]), int(ends[k])


def localization_scale(hf: HeightFunction) -> float:
    """Fixed point of L -> length of the longest run where h >= 1 - 1/L^2.

    The run length is nonincreasing in L, so the crossing is unique; it is
    found by bisection and capped at b - a.
    """
    h = hf.h
    peak = float(h.max())
    if abs(peak - 1.0) > 1e-3:
        raise ParameterError(
            f"sampled height profile peaks at {peak:.6g}, not 1; normalize the polygon"
            " first, or sample it at a finer resolution"
        )
    span = hf.b - hf.a

    def excess(scale: float) -> float:
        start, stop = longest_run(h >= 1.0 - 1.0 / (scale * scale))
        return min((stop - start) * hf.dx, span) - scale

    if excess(span) >= 0.0:
        return span
    lo = min(1e-3, 0.5 * span)
    hi = span
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate_family(kind: str, diameter_target: float) -> ConvexPolygon:
    """Convex test domains with unit inradius and a prescribed diameter.

    cone: hull of a 256-gon unit disk and an apex placed so the measured
    diameter equals the target.  stadium: two 128-segment unit half-disk
    caps joined by straight sides.  isoTriangle: isoceles triangle whose
    equal sides have the target length and whose incircle radius is 1.
    """
    D = float(diameter_target)
    if not math.isfinite(D) or D <= 2.0:
        raise ParameterError("diameter must exceed 2 for unit-inradius domains")
    if kind == "cone":
        ang = 2.0 * np.pi * np.arange(256) / 256.0
        disk = np.column_stack([np.cos(ang), np.sin(ang)])
        pts = np.vstack([disk, [D - 1.0, 0.0]])
        hull = ConvexHull(pts)
        return ConvexPolygon(vertices=pts[hull.vertices])
    if kind == "stadium":
        c = 0.5 * D - 1.0
        th_right = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 129)
        th_left = np.linspace(0.5 * np.pi, 1.5 * np.pi, 129)
        caps = np.vstack(
            [
                np.column_stack([c + np.cos(th_right), np.sin(th_right)]),
                np.column_stack([-c + np.cos(th_left), np.sin(th_left)]),
            ]
        )
        return ConvexPolygon(vertices=caps)
    if kind == "isoTriangle":
        # half-base t of a unit-incircle isoceles triangle with equal
        # sides D solves t^2 (D - t) = t + D; infeasible once D^2 <= 12
        def incircle_gap(t: float) -> float:
            return t * t * (D - t) - t - D

        if incircle_gap(0.5 * D) <= 0.0:
            raise GeometryError("diameter too small for a unit-inradius isoceles triangle")
        t = brentq(incircle_gap, 1.0 + 1e-9, 0.5 * D)
        ell = math.sqrt(D * D - t * t)
        return ConvexPolygon(vertices=np.array([[0.0, -t], [ell, 0.0], [0.0, t]]))
    raise ParameterError(f"unknown family kind: {kind!r}")
