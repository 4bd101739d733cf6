"""Convex polygon geometry feeding the width-based spectral pipeline.

Polygons are counterclockwise vertex arrays.  Normalization rotates the
thinnest support direction onto the y-axis and rescales so the transverse
extent is exactly [0, 1]; the vertical-width profile of the result drives
the one-dimensional reduction of the planar Dirichlet problem.  All of it
is plain numpy: the inradius comes from edge collapse, the cone family's
hull and the isoceles triangle's half-base from closed forms.
"""

from __future__ import annotations

import heapq
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterError
from .potential import PotentialGrid

_PI2 = math.pi**2

# Most nodes a height profile (normalize_gj) or a rasterized bounding box
# (eigensolve2d.rasterize) may have.  A 2D run peaks at about 105 bytes per
# box node (mask, multigrid levels, LOBPCG vectors; measured on vdberg cones
# from D=64 to D=256 at spacing 1/64) and a profile at about 50, so 2^25
# nodes holds a run under about 3.6 GB.  That is 8 times the box one D
# doubling past the largest default one (4,097 x 129 nodes) needs.
MAX_GRID_NODES = 1 << 25


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
        shortest = float(np.hypot(edges[:, 0], edges[:, 1]).min())
        if shortest <= 1e-12 * scale:
            raise GeometryError(f"repeated vertices: edge {shortest:g} against extent {scale:g}")
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
    proj = v @ t[tied].T
    spans = proj.max(axis=0) - proj.min(axis=0)
    k = int(tied[np.argmax(spans)])
    return float(widths[k]), k


def _collapse_time(normals, offsets, p: int, i: int, q: int) -> float:
    """Time at which inward-moving line i meets its neighbours p and q.

    Line k at time t is normals[k] . x = offsets[k] - t; the three lines
    meet where this 3x3 system in (x, y, t) has its solution, by Cramer's
    rule once line p's row is subtracted from the other two, which keeps
    nearly parallel neighbours accurate.  The system is singular only if
    two of the normals are equal, and a negative time means the edge
    grows as it moves; either way the edge never collapses.
    """
    (px, py), (ix, iy), (qx, qy) = normals[p], normals[i], normals[q]
    ax, ay, bx, by = ix - px, iy - py, qx - px, qy - py
    det = ax * by - ay * bx
    if det == 0.0:
        return math.inf
    da, db = offsets[i] - offsets[p], offsets[q] - offsets[p]
    t = offsets[p] + (db * (px * ay - py * ax) - da * (px * by - py * bx)) / det
    return t if t >= 0.0 else math.inf


def inradius(poly: ConvexPolygon) -> float:
    """Radius of the largest disk inside the polygon, by edge collapse.

    Collinear edges are merged first: an edge whose far end lies on the
    line of the last kept edge (within 1e-12 of the polygon's extent)
    adds no half-plane, and dropping it leaves every pair of neighbouring
    lines distinct.  Every line then moves inward at unit speed, and an
    edge vanishes when it and its two live neighbours meet.  Removing the
    earliest edge and re-timing only its two neighbours, down to three
    lines, traces the shrinking polygon (Aggarwal, Guibas, Saxe & Shor,
    DCG 4, 1989); the inradius is the latest collapse time.
    """
    v = poly.vertices
    ends = np.roll(v, -1, axis=0)
    e = ends - v
    ln = np.hypot(e[:, 0], e[:, 1])
    outward = np.column_stack([e[:, 1], -e[:, 0]]) / ln[:, None]
    all_normals = outward.tolist()
    all_offsets = np.sum(outward * v, axis=1).tolist()
    ends = ends.tolist()
    scale = float(max(np.ptp(v[:, 0]), np.ptp(v[:, 1])))
    m = len(v)

    def on_line(j: int, k: int) -> bool:
        (nx, ny), (x, y) = all_normals[j], ends[k]
        return abs(nx * x + ny * y - all_offsets[j]) <= 1e-12 * scale

    # start at an edge that turns away from its predecessor, so the
    # wrap-around needs no second pass
    start = next((k for k in range(m) if not on_line(k - 1, k)), 0)
    kept = [start]
    for k in range(start + 1, start + m):
        if not on_line(kept[-1], k % m):
            kept.append(k % m)
    if len(kept) < 3:
        raise GeometryError("degenerate polygon: near-zero inradius")
    normals = [all_normals[k] for k in kept]
    offsets = [all_offsets[k] for k in kept]
    m = len(kept)
    prev = [(k - 1) % m for k in range(m)]
    succ = [(k + 1) % m for k in range(m)]
    times = [_collapse_time(normals, offsets, prev[k], k, succ[k]) for k in range(m)]
    heap = [(t, k) for k, t in enumerate(times) if t < math.inf]
    heapq.heapify(heap)
    r = 0.0
    while m > 3 and heap:
        t, k = heapq.heappop(heap)
        if t != times[k]:  # re-timed or removed since it was queued
            continue
        r = max(r, t)
        times[k] = math.inf
        p, q = prev[k], succ[k]
        succ[p], prev[q] = q, p
        m -= 1
        for j in (p, q):
            times[j] = _collapse_time(normals, offsets, prev[j], j, succ[j])
            if times[j] < math.inf:
                heapq.heappush(heap, (times[j], j))
    r = max([r] + [t for t in times if t < math.inf])  # the last three meet together
    if r <= 1e-9 * scale:
        raise GeometryError(f"degenerate polygon: inradius {r:g} against extent {scale:g}")
    return r


def _boundary_graphs(v: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper boundary y-values of convex polygon v over each vertical line x.

    Each is one interpolation along a chain between the ends, the upper one
    over the negated axis so every edge is read from its first vertex.  A
    vertex within 1e-9 of the length from an end lies on that end, so a side
    that rotation left off vertical by rounding still spans the end line.
    """
    xs = v[:, 0]
    tol = 1e-9 * np.ptp(xs)
    at_left, at_right = xs <= xs.min() + tol, xs >= xs.max() - tol

    def chain(start, stop):
        i = np.flatnonzero(start & ~np.roll(start, -1))[0]  # last vertex at start
        j = np.flatnonzero(stop & ~np.roll(stop, 1))[0]  # first vertex at stop
        return v[(i + np.arange((j - i) % len(v) + 1)) % len(v)]

    lower, upper = chain(at_left, at_right), chain(at_right, at_left)
    return np.interp(x, lower[:, 0], lower[:, 1]), np.interp(-x, -upper[:, 0], upper[:, 1])


def normalize_gj(
    poly: ConvexPolygon, resolution: int = 256
) -> tuple[ConvexPolygon, HeightFunction]:
    """Rotate the thinnest direction onto y and rescale it to [0, 1].

    The boundary graphs f1, f2 are sampled by vertical-line clipping on a
    uniform x-grid with spacing about 1/resolution.  If the widest section
    would land in the right half, the polygon is mirrored in x first, so
    reflected inputs produce identical profiles.  A profile of more than
    MAX_GRID_NODES nodes is rejected before it is allocated.
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
    n = max(4, int(round(min(length * resolution, MAX_GRID_NODES))) - 1)
    if n + 2 > MAX_GRID_NODES:
        raise ParameterError(
            f"a height profile of length {length:g} at resolution {resolution} needs more"
            f" than MAX_GRID_NODES = {MAX_GRID_NODES} nodes"
        )
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
    return PotentialGrid(a=hf.a, b=hf.b, values=_PI2 / clipped**2)


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
    found by bisection and capped at b - a.  The bisection stops once the
    midpoint rounds onto an end of the bracket: every later step would then
    leave the midpoint, which is the result, where it is.
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
        if mid == lo or mid == hi:
            break
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate_family(kind: str, diameter_target: float) -> ConvexPolygon:
    """Convex test domains with unit inradius and a prescribed diameter.

    cone: hull of a 256-gon unit disk and an apex placed so the measured
    diameter equals the target, in the vertex order of scipy's ConvexHull.
    stadium: two 128-segment unit half-disk caps joined by straight sides.
    isoTriangle: isoceles triangle whose equal sides have the target length
    and whose incircle radius is 1.
    """
    D = float(diameter_target)
    if not math.isfinite(D) or D <= 2.0:
        raise ParameterError("diameter must exceed 2 for unit-inradius domains")
    if kind == "cone":
        ang = 2.0 * np.pi * np.arange(256) / 256.0
        disk = np.column_stack([np.cos(ang), np.sin(ang)])
        apex = np.array([D - 1.0, 0.0])
        # edge k runs from disk[k] to disk[k + 1]; drop every vertex whose
        # two edges both face the apex, and start where qhull does: at the
        # last kept vertex below the axis, then the apex, counterclockwise
        e = np.roll(disk, -1, axis=0) - disk
        w = apex - disk
        faces = e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0] < 0.0
        kept = np.flatnonzero(~(faces & np.roll(faces, 1)))
        return ConvexPolygon(vertices=np.vstack([disk[kept[-1]], apex, disk[kept[:-1]]]))
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
        # sides D solves t^2 (D - t) = t + D; infeasible once D^2 <= 12.
        # Of the cubic's roots one lies in (1, D/2], one above D/2, and
        # one is negative.  The wanted one is about 1 + 1/D, which rounds
        # to 1 once D passes about 4.5e15
        half = 0.5 * D
        if half * half * half - half - D <= 0.0:
            raise GeometryError("diameter too small for a unit-inradius isoceles triangle")
        roots = np.roots([-1.0, D, -1.0, -D])
        wanted = roots.real[(roots.imag == 0.0) & (roots.real > 1.0) & (roots.real <= half)]
        if wanted.size != 1:
            raise GeometryError(
                f"diameter {D:g} is beyond float precision for a unit-inradius isoceles triangle"
            )
        t = float(wanted[0])
        ell = math.sqrt(D * D - t * t)
        return ConvexPolygon(vertices=np.array([[0.0, -t], [ell, 0.0], [0.0, t]]))
    raise ParameterError(f"unknown family kind: {reprlib.repr(kind)}")
