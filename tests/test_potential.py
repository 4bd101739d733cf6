import numpy as np
import pytest

from specgap.errors import ParameterError
from specgap.potential import DEFAULT_CAP, PotentialGrid, PotentialSpec, sample


def shift(grid, c):
    """Test reference: add the constant c to every value."""
    return PotentialGrid(a=grid.a, b=grid.b, values=grid.values + c)


def cone_model(D, n):
    """Test reference: V(x) = D^2/(D-x)^2 - 1 on [0, D], pole clamped at DEFAULT_CAP."""
    return sample(PotentialSpec(kind="coneModel", params=[float(D)], interval=(0.0, float(D))), n)


def test_square_well_is_zero_everywhere():
    spec = PotentialSpec(kind="squareWell", params=[], interval=(0.0, 1.0))
    g = sample(spec, n=3)
    assert g.a == 0.0 and g.b == 1.0
    np.testing.assert_array_equal(g.values, np.zeros(5))


def test_harmonic_values_at_coarse_nodes():
    spec = PotentialSpec(kind="harmonic", params=[], interval=(-1.0, 1.0))
    g = sample(spec, n=3)
    np.testing.assert_allclose(g.values, [1.0, 0.25, 0.0, 0.25, 1.0], atol=1e-15)


def test_quartic_values_at_coarse_nodes():
    spec = PotentialSpec(kind="quartic", params=[], interval=(-1.0, 1.0))
    g = sample(spec, n=3)
    np.testing.assert_allclose(g.values, [1.0, 0.0625, 0.0, 0.0625, 1.0], atol=1e-15)


def test_linear_well_absolute_value():
    spec = PotentialSpec(kind="linearWell", params=[], interval=(-2.0, 2.0))
    g = sample(spec, n=3)
    np.testing.assert_allclose(g.values, [2.0, 1.0, 0.0, 1.0, 2.0], atol=1e-15)


def test_linear_well_slope_parameter():
    spec = PotentialSpec(kind="linearWell", params=[3.0], interval=(-2.0, 2.0))
    g = sample(spec, n=3)
    np.testing.assert_allclose(g.values, [6.0, 3.0, 0.0, 3.0, 6.0], atol=1e-15)


def test_cone_model_midpoint_value():
    # V(x) = D^2/(D-x)^2 - 1; at D=10, x=5 this is 100/25 - 1 = 3
    g = cone_model(10.0, n=9)
    assert g.a == 0.0 and g.b == 10.0
    x = np.linspace(g.a, g.b, 11)
    assert x[5] == 5.0
    assert g.values[5] == pytest.approx(3.0, abs=1e-12)
    assert g.values[0] == 0.0


def test_cone_model_small_d():
    g = cone_model(4.0, n=3)
    # nodes at 0, 1, 2, 3, 4; x=2 gives 16/4 - 1 = 3
    assert g.values[2] == pytest.approx(3.0, abs=1e-12)


def test_cone_model_pole_is_capped():
    g = cone_model(10.0, n=99)
    assert np.all(np.isfinite(g.values))
    assert np.all(g.values <= DEFAULT_CAP)
    assert g.values[-1] == DEFAULT_CAP


def test_cone_model_monotone_and_zero_at_origin():
    g = cone_model(32.0, n=255)
    assert g.values[0] == 0.0
    assert np.all(np.diff(g.values) >= 0)


def test_cone_via_sample_matches_helper():
    # the closed form at every node but the pole, where sample clamps
    g = cone_model(10.0, n=49)
    x = np.linspace(0.0, 10.0, 51)
    np.testing.assert_array_equal(g.values[:-1], 100.0 / (10.0 - x[:-1]) ** 2 - 1.0)
    assert g.values[-1] == DEFAULT_CAP


def test_default_cap_clamps_values():
    # a slope so steep that the outer nodes pass the cap; the rest keep exact values
    spec = PotentialSpec(kind="linearWell", params=[1e13], interval=(-1.0, 1.0))
    g = sample(spec, n=99)
    assert g.values.max() == DEFAULT_CAP
    assert g.values[0] == g.values[-1] == DEFAULT_CAP
    x = np.linspace(-1.0, 1.0, 101)
    np.testing.assert_array_equal(g.values[46:55], 1e13 * np.abs(x[46:55]))


def test_samples_kind_interpolates_linearly():
    spec = PotentialSpec(kind="samples", params=[0.0, 2.0, 0.0], interval=(0.0, 1.0))
    g = sample(spec, n=3)
    # tent through (0,0), (0.5,2), (1,0) at nodes 0, .25, .5, .75, 1
    np.testing.assert_allclose(g.values, [0.0, 1.0, 2.0, 1.0, 0.0], atol=1e-15)


def test_piecewise_linear_kind():
    spec = PotentialSpec(
        kind="piecewiseLinear",
        params=[0.0, 5.0, 0.4, 1.0, 1.0, 3.0],
        interval=(0.0, 1.0),
    )
    g = sample(spec, n=4)
    # knots (0,5), (0.4,1), (1,3); nodes at 0, .2, .4, .6, .8, 1
    np.testing.assert_allclose(g.values, [5.0, 3.0, 1.0, 5.0 / 3.0, 7.0 / 3.0, 3.0], rtol=1e-14)


def test_shift_round_trip_exact():
    g = sample(PotentialSpec(kind="harmonic", params=[], interval=(-1.0, 1.0)), n=15)
    h = shift(shift(g, 2.5), -2.5)
    np.testing.assert_array_equal(h.values, g.values)
    assert h.a == g.a and h.b == g.b


def test_shift_moves_minimum():
    g = sample(PotentialSpec(kind="harmonic", params=[], interval=(-1.0, 1.0)), n=15)
    assert g.values.min() == 0.0
    assert shift(g, -1.0).values.min() == -1.0
    assert shift(g, 5.0).values.min() == 5.0


def test_shift_preserves_interval_and_size():
    g = sample(PotentialSpec(kind="squareWell", params=[], interval=(0.0, 1.0)), n=7)
    h = shift(g, 5.0)
    np.testing.assert_array_equal(h.values, np.full(9, 5.0))
    assert h.n == g.n and h.dx == g.dx


def test_invalid_specs_raise():
    with pytest.raises(ParameterError):
        sample(PotentialSpec(kind="coneModel", params=[1.0], interval=(0.0, 1.0)), n=3)
    with pytest.raises(ParameterError, match="D > 1"):
        sample(PotentialSpec(kind="coneModel", params=[0.5], interval=(0.0, 0.5)), n=9)
    with pytest.raises(ParameterError):
        sample(PotentialSpec(kind="squareWell", params=[], interval=(1.0, 0.0)), n=3)
    with pytest.raises(ParameterError):
        sample(PotentialSpec(kind="squareWell", params=[], interval=(0.0, 1.0)), n=2)
    with pytest.raises(ParameterError):
        sample(PotentialSpec(kind="mystery", params=[], interval=(0.0, 1.0)), n=3)
    with pytest.raises(ParameterError):
        sample(PotentialSpec(kind="samples", params=[1.0], interval=(0.0, 1.0)), n=3)


@pytest.mark.parametrize(
    "kind, most", [("squareWell", 0), ("harmonic", 1), ("quartic", 1), ("linearWell", 2)]
)
def test_extra_params_rejected(kind, most):
    spec = PotentialSpec(kind=kind, params=[0.5] * most, interval=(0.0, 1.0))
    assert sample(spec, n=9).n == 9
    with pytest.raises(ParameterError, match=f"{kind} takes at most {most} parameters"):
        sample(PotentialSpec(kind=kind, params=[0.5] * (most + 1), interval=(0.0, 1.0)), n=9)


def test_grid_reports_node_count():
    g = sample(PotentialSpec(kind="squareWell", params=[], interval=(0.0, 2.0)), n=7)
    assert g.n == 7
    assert g.dx == pytest.approx(0.25)
    assert len(g.values) == 9


def test_grid_validation():
    with pytest.raises(ParameterError):
        PotentialGrid(a=0.0, b=1.0, values=np.array([0.0, np.inf, 0.0, 0.0, 0.0]))
    with pytest.raises(ParameterError):
        PotentialGrid(a=0.0, b=1.0, values=np.zeros(4))  # n would be 2
