import math

import numpy as np
import pytest

from specgap.potential import PotentialGrid, PotentialSpec, cone_model_potential, sample, shift
from specgap.sublevel import minimize_functional, width, width_profile

PI2 = math.pi**2


def grid_of(kind, interval, n, params=()):
    return sample(PotentialSpec(kind=kind, params=list(params), interval=interval), n)


def double_well(n=1999, scale=1.0):
    x = np.linspace(-2.0, 2.0, n + 2)
    return PotentialGrid(a=-2.0, b=2.0, values=scale * (x**2 - 1.0) ** 2)


def test_width_square_well_counts_all_interior_nodes():
    g = grid_of("squareWell", (0.0, 1.0), 999)
    assert width(g, 0.5) == pytest.approx(0.999, abs=1e-12)
    assert width(g, 0.0) == pytest.approx(0.999, abs=1e-12)


def test_width_linear_ramp():
    # V(x) = x on [0,1]; nodes x_i = i/1000, those with x_i <= 0.3 are i=1..300
    g = grid_of("piecewiseLinear", (0.0, 1.0), 999, params=[0.0, 0.0, 1.0, 1.0])
    assert width(g, 0.3) == pytest.approx(0.3, abs=1e-12)


def test_width_cone_matches_closed_form():
    # w(y) = D(1 - 1/sqrt(1+y)); D=10, y=3 gives 5
    g = cone_model_potential(10.0, n=9999)
    assert width(g, 3.0) == pytest.approx(5.0, abs=2e-3)


def test_width_monotone_and_bounded():
    g = grid_of("harmonic", (-3.0, 3.0), 500)
    ys = np.linspace(0.01, 12.0, 80)
    ws = [width(g, y) for y in ys]
    assert all(b >= a for a, b in zip(ws, ws[1:]))
    assert ws[-1] <= 6.0 + 1e-12


def test_width_empty_sublevel_is_zero():
    g = grid_of("harmonic", (-1.0, 1.0), 99)
    assert width(g, -0.5) == 0.0


def is_interval_sublevel(grid, y):
    """Test reference: the interior nodes with V <= y form one nonempty contiguous block."""
    idx = np.flatnonzero(grid.values[1:-1] <= y)
    return bool(len(idx) > 0 and idx[-1] - idx[0] + 1 == len(idx))


def functional_value(grid, y):
    """Test reference: 1/width^2 + y, with +inf for an empty sublevel set."""
    w = width(grid, y)
    return math.inf if w == 0.0 else 1.0 / (w * w) + y


def test_is_interval_cases():
    g = grid_of("harmonic", (-1.0, 1.0), 99)
    assert is_interval_sublevel(g, 0.5) is True
    assert is_interval_sublevel(g, -1.0) is False  # empty
    dw = double_well()
    assert is_interval_sublevel(dw, 0.5) is False
    assert is_interval_sublevel(dw, 1.5) is True
    sq = grid_of("squareWell", (0.0, 1.0), 9)
    assert is_interval_sublevel(sq, 0.0) is True


def test_functional_value_square_well():
    g = grid_of("squareWell", (0.0, 1.0), 999)
    assert functional_value(g, 0.0) == pytest.approx(1.0, abs=3e-3)


def test_functional_value_harmonic_near_one():
    # w(0.5) = 2*sqrt(0.5) on a wide interval, F = 1/(4*0.5) + 0.5 = 1
    g = grid_of("harmonic", (-12.0, 12.0), 4000)
    assert functional_value(g, 0.5) == pytest.approx(1.0, abs=0.02)


def test_functional_value_cone():
    g = cone_model_potential(10.0, n=9999)
    assert functional_value(g, 3.0) == pytest.approx(3.04, abs=0.01)


def test_functional_value_empty_sublevel_is_inf():
    g = grid_of("harmonic", (-1.0, 1.0), 99)
    assert functional_value(g, -2.0) == math.inf


def test_minimize_square_well_degenerate_constant():
    g = grid_of("squareWell", (0.0, 1.0), 999)
    r = minimize_functional(g)
    assert 0.0 < r.yStar <= 1e-12
    assert r.widthAtYStar == pytest.approx(1.0, abs=1e-15)
    assert r.fStar == pytest.approx(1.0, abs=1e-12)
    assert r.lowerBound == r.fStar / 250.0
    assert r.isInterval is True
    assert r.upperBoundSharp == pytest.approx(PI2, abs=1e-9)


def test_minimize_harmonic_matches_calculus():
    # continuum: min 1/(4y) + y at y* = 1/2, F* = 1
    g = grid_of("harmonic", (-12.0, 12.0), 4000)
    r = minimize_functional(g)
    assert r.yStar == pytest.approx(0.5, rel=0.05)
    assert r.fStar == pytest.approx(1.0, rel=0.02)
    assert r.isInterval is True


def test_minimize_linear_well_matches_calculus():
    # w = 2y, F = 1/(4y^2) + y, y* = 2^(-1/3), F* = 1.1905507889761495
    g = grid_of("linearWell", (-12.0, 12.0), 4000)
    r = minimize_functional(g)
    assert r.yStar == pytest.approx(2.0 ** (-1.0 / 3.0), rel=0.05)
    assert r.fStar == pytest.approx(1.1905507889761495, rel=0.02)


def test_minimize_quartic_matches_calculus():
    # w = 2y^(1/4), F = 1/(4 sqrt(y)) + y, y* = 1/4, F* = 0.75
    g = grid_of("quartic", (-12.0, 12.0), 4000)
    r = minimize_functional(g)
    assert r.yStar == pytest.approx(0.25, rel=0.05)
    assert r.fStar == pytest.approx(0.75, rel=0.02)


def test_minimize_cone_scaling():
    D = 100.0
    g = cone_model_potential(D, n=800)
    r = minimize_functional(g)
    s = D ** (-2.0 / 3.0)
    assert s <= r.yStar <= 4.0 * s
    assert 2.0 * s <= r.fStar <= 4.5 * s


def test_report_invariants_on_suite():
    for g in [
        grid_of("harmonic", (-12.0, 12.0), 2000),
        grid_of("linearWell", (-12.0, 12.0), 2000),
        grid_of("quartic", (-12.0, 12.0), 2000),
        cone_model_potential(64.0, n=512),
    ]:
        r = minimize_functional(g)
        assert r.yStar > g.values.min()
        assert r.widthAtYStar > 0
        assert r.fStar >= r.yStar
        assert r.lowerBound == r.fStar / 250.0
        if r.upperBoundSharp is not None:
            assert r.upperBoundSharp <= PI2 * r.fStar * (1 + 1e-12)


def test_minimize_double_well_no_sharp_bound():
    # global minimizer of F sits at split sublevel (two wells), so the sharp
    # upper bound must be absent while the lower bound is still reported
    r = minimize_functional(double_well())
    assert r.isInterval is False
    assert r.upperBoundSharp is None
    assert r.lowerBound > 0
    # continuum oracle: w(y) = 2(sqrt(1+sqrt(y)) - sqrt(1-sqrt(y))), minimized
    # numerically at y* = 0.50788, F* = 0.92666
    assert r.yStar == pytest.approx(0.5078755002585809, rel=0.05)
    assert r.fStar == pytest.approx(0.9266582180811498, rel=0.02)


def test_eigenvalue_bounds_square_well():
    g = grid_of("squareWell", (0.0, 1.0), 999)
    r = minimize_functional(g)
    lower, upper = r.lowerBound, r.upperBoundSharp
    assert lower == pytest.approx(0.004, abs=1e-5)
    assert upper == pytest.approx(PI2, abs=1e-9)
    assert lower <= PI2 <= upper * (1 + 1e-12)


def test_eigenvalue_bounds_double_well_upper_absent():
    r = minimize_functional(double_well())
    lower, upper = r.lowerBound, r.upperBoundSharp
    assert lower > 0
    assert upper is None


def test_shift_equivariance():
    g = grid_of("harmonic", (-6.0, 6.0), 1500)
    r0 = minimize_functional(g)
    r1 = minimize_functional(shift(g, 3.25))
    assert r1.fStar == pytest.approx(r0.fStar + 3.25, abs=1e-10)
    assert r1.yStar == pytest.approx(r0.yStar + 3.25, abs=1e-10)
    assert r1.widthAtYStar == pytest.approx(r0.widthAtYStar, abs=1e-15)
    y = 0.37
    assert width(shift(g, 3.25), y + 3.25) == pytest.approx(width(g, y), abs=1e-15)


def test_scan_is_exact_against_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(10, 200))
        vals = rng.uniform(0.0, 5.0, n + 2)
        g = PotentialGrid(a=0.0, b=1.0, values=vals)
        r = minimize_functional(g)
        # brute force over a fine y sweep can never beat the candidate scan
        ys = np.linspace(vals.min() + 1e-9, vals.max() + 1.0, 4000)
        brute = min(functional_value(g, y) for y in ys)
        assert r.fStar <= brute + 1e-12


def test_width_profile_equals_per_level_loop():
    rng = np.random.default_rng(8)
    grids = [double_well(999), cone_model_potential(32.0, 300), grid_of("squareWell", (0.0, 1.0), 50)]
    grids.append(PotentialGrid(a=0.0, b=1.0, values=rng.integers(0, 6, 302).astype(float)))
    for g in grids:
        levels, widths, functional = width_profile(g)
        np.testing.assert_array_equal(levels, np.unique(g.values[1:-1]))
        assert widths.tolist() == [width(g, y) for y in levels.tolist()]
        assert functional.tolist() == [functional_value(g, y) for y in levels.tolist()]
