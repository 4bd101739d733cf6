"""The paper's invariants as properties over random piecewise-linear wells."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap.eigensolve1d import discretize, smallest_eigenpair
from specgap.potential import PotentialSpec, sample, shift
from specgap.sublevel import minimize_functional

PI2 = math.pi**2

# few, reproducible examples keep the suite fast and deterministic
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def wells(draw):
    """Nonnegative piecewise-linear wells: knot values fall, then rise, so
    every sublevel set is one interval. Integer knot values keep every
    sample either on min V or well above it, so adding a constant cannot
    round a sample onto the minimum."""
    length = draw(st.floats(0.5, 20.0))
    values = draw(st.lists(st.integers(0, 200).map(float), min_size=3, max_size=8))
    turn = draw(st.integers(0, len(values) - 1))
    values = sorted(values[: turn + 1], reverse=True) + sorted(values[turn + 1 :])
    knots = [length * i / (len(values) - 1) for i in range(len(values))]
    params = [v for pair in zip(knots, values) for v in pair]
    return sample(PotentialSpec("piecewiseLinear", params, (0.0, length)), 400)


@PROPERTY
@given(grid=wells(), c=st.floats(-50.0, 50.0))
def test_shift_equivariance(grid, c):
    moved = shift(grid, c)
    lam0 = smallest_eigenpair(discretize(grid)).lambda1
    lam1 = smallest_eigenpair(discretize(moved)).lambda1
    assert lam1 == pytest.approx(lam0 + c, rel=1e-9, abs=1e-9)
    f0 = minimize_functional(grid).fStar
    assert minimize_functional(moved).fStar == pytest.approx(f0 + c, rel=1e-10, abs=1e-10)


@PROPERTY
@given(grid=wells())
def test_sandwich_on_random_wells(grid):
    f_star = minimize_functional(grid).fStar
    lam = smallest_eigenpair(discretize(grid)).lambda1
    assert f_star / 250.0 <= lam <= PI2 * f_star
