"""Sublevel-set widths and the functional 1/w(y)^2 + y.

The width at level y counts interior nodes with V_i <= y, times dx. As y
sweeps upward the width is a right-continuous step function whose jumps sit
exactly at sample values, and between jumps the functional grows linearly in
y, so scanning the distinct sample values above the minimum gives the exact
discrete minimizer. The minimum value yields a two-sided eigenvalue estimate:
fStar/250 from below and, when the minimizing sublevel set is one interval,
min(pi^2/w^2 + y) from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from specgap.potential import PotentialGrid

_PI2 = math.pi**2


@dataclass(frozen=True)
class SublevelReport:
    yStar: float
    widthAtYStar: float
    fStar: float
    isInterval: bool
    lowerBound: float
    upperBoundSharp: Optional[float]


def width(grid: PotentialGrid, y: float) -> float:
    """Total length of the discrete sublevel set {V <= y}, interior nodes only."""
    interior = grid.values[1:-1]
    return grid.dx * int(np.count_nonzero(interior <= y))


def _scan(grid: PotentialGrid) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every distinct sample value y in ascending order, boundary samples
    included, with the number of interior nodes where V <= y and whether
    those nodes are consecutive.

    The sublevel at y consists of the count smallest interior values, so
    prefix extrema of the node indices in value order tell whether it is one
    block: it is exactly when (max index - min index + 1) equals the count.
    """
    levels = np.unique(grid.values)
    interior = grid.values[1:-1]
    order = np.argsort(interior, kind="stable")
    counts = np.searchsorted(interior[order], levels, side="right")
    first = np.minimum.accumulate(order)[counts - 1]
    last = np.maximum.accumulate(order)[counts - 1]
    return levels, counts, last - first + 1 == counts


def width_profile(grid: PotentialGrid) -> Tuple[SublevelReport, np.ndarray, np.ndarray, np.ndarray]:
    """minimize_functional's report, then every distinct interior sample
    value y with width(y) and 1/width(y)^2 + y there, from one O(n log n)
    scan."""
    levels, counts, contiguous = _scan(grid)
    report = _minimize(grid, levels, counts, contiguous)
    rises = np.diff(counts, prepend=0) > 0  # the levels an interior node holds
    levels, widths = levels[rises], grid.dx * counts[rises]
    return report, levels, widths, 1.0 / (widths * widths) + levels


def minimize_functional(grid: PotentialGrid) -> SublevelReport:
    """Exact discrete minimization of 1/w(y)^2 + y over levels y > min V."""
    return _minimize(grid, *_scan(grid))


def _minimize(
    grid: PotentialGrid, levels: np.ndarray, counts: np.ndarray, contiguous: np.ndarray
) -> SublevelReport:
    """minimize_functional on the scan (_scan) of grid."""
    if len(levels) == 1:
        # constant potential: every level above the constant sees the whole
        # interval, so the constant stands in at the full width
        candidates, widths = levels, np.array([grid.b - grid.a])
    else:
        # the levels above min V = levels[0] whose sublevel holds a node
        keep = np.flatnonzero(counts[1:] > 0) + 1
        candidates, widths, contiguous = levels[keep], grid.dx * counts[keep], contiguous[keep]
    f_vals = 1.0 / (widths * widths) + candidates
    k = int(np.argmin(f_vals))  # ties resolve to the smallest level
    y_star = float(candidates[k])
    if len(levels) == 1:  # report a level one epsilon above the constant
        y_star += np.finfo(float).eps * max(1.0, abs(y_star))
    f_star = float(f_vals[k])
    star_is_interval = bool(contiguous[k])

    # the sharp bound needs the sublevel set to be one interval at the level
    # where it is evaluated, so minimize over interval levels only, and report
    # nothing when the functional's own minimizer sits on a split sublevel
    upper_sharp = None
    if star_is_interval:
        g_vals = _PI2 / (widths[contiguous] ** 2) + candidates[contiguous]
        upper_sharp = float(g_vals.min())

    return SublevelReport(
        yStar=y_star,
        widthAtYStar=float(widths[k]),
        fStar=f_star,
        isInterval=star_is_interval,
        lowerBound=f_star / 250.0,
        upperBoundSharp=upper_sharp,
    )
