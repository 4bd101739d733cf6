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


def is_interval_sublevel(grid: PotentialGrid, y: float) -> bool:
    """True when the interior nodes with V <= y form one nonempty contiguous block."""
    inside = grid.values[1:-1] <= y
    count = int(np.count_nonzero(inside))
    if count == 0:
        return False
    idx = np.flatnonzero(inside)
    return bool(idx[-1] - idx[0] + 1 == count)


def functional_value(grid: PotentialGrid, y: float) -> float:
    """1/width^2 + y, with +inf as the empty-sublevel sentinel."""
    w = width(grid, y)
    if w == 0.0:
        return math.inf
    return 1.0 / (w * w) + y


def _sorted_counts(grid: PotentialGrid, levels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Number of interior nodes with V <= y for each y in `levels`, and
    the node indices in value order."""
    interior = grid.values[1:-1]
    order = np.argsort(interior, kind="stable")
    return np.searchsorted(interior[order], levels, side="right"), order


def width_profile(grid: PotentialGrid) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every distinct interior sample value y with width(y) and
    1/width(y)^2 + y there, in one O(n log n) pass."""
    levels = np.unique(grid.values[1:-1])
    counts, _ = _sorted_counts(grid, levels)
    widths = grid.dx * counts
    return levels, widths, 1.0 / (widths * widths) + levels


def _candidate_scan(
    grid: PotentialGrid,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Distinct sample values strictly above min V, with width and an
    is-the-sublevel-an-interval flag at each.

    Returns None for a constant potential (no admissible candidate level).
    The interval flags come from prefix extrema of node indices in value
    order: the sublevel at a candidate consists of the count smallest
    values, so it is contiguous exactly when (max index - min index + 1)
    equals the count.
    """
    vmin = float(grid.values.min())
    candidates = np.unique(grid.values)
    candidates = candidates[candidates > vmin]
    if len(candidates) == 0:
        return None
    counts, order = _sorted_counts(grid, candidates)
    first_idx = np.minimum.accumulate(order)
    last_idx = np.maximum.accumulate(order)
    widths = grid.dx * counts
    contiguous = (last_idx[counts - 1] - first_idx[counts - 1] + 1) == counts
    return candidates, widths, contiguous


def minimize_functional(grid: PotentialGrid) -> SublevelReport:
    """Exact discrete minimization of 1/w(y)^2 + y over levels y > min V."""
    scan = _candidate_scan(grid)
    if scan is None:
        # constant potential: every level above the constant sees the whole
        # interval, so take the full width and a level one epsilon up
        vmin = float(grid.values.min())
        span = grid.b - grid.a
        y_star = vmin + np.finfo(float).eps * max(1.0, abs(vmin))
        f_star = 1.0 / (span * span) + vmin
        return SublevelReport(
            yStar=y_star,
            widthAtYStar=span,
            fStar=f_star,
            isInterval=True,
            lowerBound=f_star / 250.0,
            upperBoundSharp=_PI2 / (span * span) + vmin,
        )

    candidates, widths, contiguous = scan
    positive = widths > 0
    candidates, widths, contiguous = candidates[positive], widths[positive], contiguous[positive]
    f_vals = 1.0 / (widths * widths) + candidates
    k = int(np.argmin(f_vals))  # ties resolve to the smallest level
    y_star = float(candidates[k])
    f_star = float(f_vals[k])
    star_is_interval = bool(contiguous[k])

    # the sharp bound needs the sublevel set to be one interval at the level
    # where it is evaluated, so minimize over interval levels only, and report
    # nothing when the functional's own minimizer sits on a split sublevel
    upper_sharp = None
    if star_is_interval and np.any(contiguous):
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


def eigenvalue_bounds(grid: PotentialGrid) -> Tuple[float, Optional[float]]:
    """(fStar/250, sharp upper bound or None) for the grid's ground energy."""
    report = minimize_functional(grid)
    return report.lowerBound, report.upperBoundSharp
