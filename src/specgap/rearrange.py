"""Symmetric rearrangements about the interval midpoint and the inequality
chain they satisfy.

Placement convention: the extremal value goes to the center node (for an
even count, the left of the two middle nodes) and the rest alternate
outward, right first. Sorting is stable, so tied values keep input order.
With both arrays arranged this way, the potential-times-mass sum pairs the
k-th smallest potential value with the k-th largest mass, which is the
minimal pairing, so that inequality is exact. The gradient and eigenvalue
comparisons pick up O(dx) boundary terms, which pipeline's allowance covers.
"""

from __future__ import annotations

import numpy as np

from specgap.eigensolve1d import Eigenpair1D, smallest_eigenpair
from specgap.potential import PotentialGrid


def _center_out_positions(m: int) -> np.ndarray:
    """Node indices in placement order: center, then alternating right/left,
    that is (m-1)//2 plus the offsets 0, +1, -1, +2, -2, ..."""
    k = np.arange(m)
    step = (k + 1) // 2
    return (m - 1) // 2 + np.where(k % 2 == 1, step, -step)


def symmetric_increasing(V: np.ndarray) -> np.ndarray:
    """Equimeasurable rearrangement of V dipping at the center node."""
    V = np.asarray(V, dtype=float)
    order = np.argsort(V, kind="stable")
    out = np.empty_like(V)
    out[_center_out_positions(len(V))] = V[order]
    return out


def symmetric_decreasing(f: np.ndarray) -> np.ndarray:
    """Equimeasurable rearrangement of |f| peaking at the center node; the
    increasing one of -|f|, negated (IEEE negation is exact)."""
    return -symmetric_increasing(-np.abs(f))


def _gradient_energy(f: np.ndarray, dx: float) -> float:
    padded = np.concatenate(([0.0], f, [0.0]))
    grad = np.diff(padded) / dx
    return float(np.sum(grad * grad) * dx)


def verify_chain(grid: PotentialGrid, pair: Eigenpair1D) -> dict:
    """Both sides of each comparison for the ground state `pair` of `grid`,
    keyed in rearrangeCheck's CSV column order; the one solve is the
    rearranged potential's. Asserts nothing."""
    dx = grid.dx
    f = pair.f
    V = grid.values[1:-1]

    f_star = symmetric_decreasing(f)
    v_star = symmetric_increasing(V)

    boundary = float(grid.values.max())
    star_values = np.concatenate(([boundary], v_star, [boundary]))
    grid_star = PotentialGrid(a=grid.a, b=grid.b, values=star_values)

    return {
        "hlLeft": float(np.sum(V * f * f) * dx),
        "hlRight": float(np.sum(v_star * f_star * f_star) * dx),
        "psLeft": _gradient_energy(f_star, dx),
        "psRight": _gradient_energy(f, dx),
        "lambdaOriginal": pair.lambda1,
        "lambdaRearranged": smallest_eigenpair(grid_star).lambda1,
    }
