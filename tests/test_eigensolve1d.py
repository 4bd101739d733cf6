import math

import numpy as np
import pytest

from specgap.eigensolve1d import (
    check_linfty_bound,
    discretize,
    rayleigh_quotient,
    shortest_mass_interval,
    sine_testfunction_bound,
    smallest_eigenpair,
)
from specgap.errors import ParameterError
from specgap.potential import PotentialGrid, PotentialSpec, cone_model_potential, sample, shift
from specgap.sublevel import minimize_functional

PI2 = math.pi**2


def grid_of(kind, interval, n, params=()):
    return sample(PotentialSpec(kind=kind, params=list(params), interval=interval), n)


def closed_form_well(n):
    dx = 1.0 / (n + 1)
    return (2.0 / dx**2) * (1.0 - math.cos(math.pi * dx))


# ---------- discretize ----------


def test_discretize_square_well_coarse():
    op = discretize(grid_of("squareWell", (0.0, 1.0), 3))
    np.testing.assert_allclose(op.diag, [32.0, 32.0, 32.0], rtol=1e-15)
    assert op.off == pytest.approx(-16.0, rel=1e-15)
    assert op.dx == pytest.approx(0.25)


def test_discretize_harmonic_coarse():
    op = discretize(grid_of("harmonic", (-1.0, 1.0), 3))
    np.testing.assert_allclose(op.diag, [8.25, 8.0, 8.25], rtol=1e-15)
    assert op.off == pytest.approx(-4.0, rel=1e-15)


def test_discretize_shift_moves_diagonal_only():
    g = grid_of("harmonic", (-1.0, 1.0), 9)
    op0, op1 = discretize(g), discretize(shift(g, 2.0))
    np.testing.assert_allclose(op1.diag, op0.diag + 2.0, rtol=1e-15)
    assert op1.off == op0.off


# ---------- smallest_eigenpair ----------


def test_lambda1_matches_dense_solver():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(8, 60))
        vals = rng.uniform(0.0, 30.0, n + 2)
        op = discretize(PotentialGrid(a=0.0, b=1.0, values=vals))
        dense = np.diag(op.diag) + np.diag(np.full(n - 1, op.off), 1) + np.diag(
            np.full(n - 1, op.off), -1
        )
        lam = smallest_eigenpair(op).lambda1
        assert lam == pytest.approx(np.linalg.eigvalsh(dense)[0], rel=1e-10)


def test_ground_state_positive_in_the_tails():
    # the tails are tiny, yet they must stay positive rather than carry sign noise
    for g in [
        grid_of("quartic", (-12.0, 12.0), 4000),
        grid_of("harmonic", (-12.0, 12.0), 100000),
        cone_model_potential(1024.0, 8192),
    ]:
        assert np.all(smallest_eigenpair(discretize(g)).f > 0)


def test_square_well_matches_discrete_closed_form():
    g = grid_of("squareWell", (0.0, 1.0), 1000)
    pair = smallest_eigenpair(discretize(g))
    exact = closed_form_well(1000)
    assert pair.lambda1 == pytest.approx(exact, rel=1e-10)
    assert abs(pair.lambda1 - PI2) / PI2 < 1e-5


def test_square_well_eigenvector_is_sine():
    n = 400
    g = grid_of("squareWell", (0.0, 1.0), n)
    pair = smallest_eigenpair(discretize(g))
    x = np.linspace(0, 1, n + 2)[1:-1]
    ref = np.sqrt(2.0) * np.sin(np.pi * x)
    # discrete normalization differs from the continuum by O(dx^2)
    assert np.max(np.abs(pair.f - ref)) < 1e-3
    assert np.all(pair.f > 0)
    assert pair.normL2 == pytest.approx(1.0, abs=1e-12)


def test_eigenvector_quadrature_norm_and_residual():
    g = grid_of("harmonic", (-12.0, 12.0), 2000)
    op = discretize(g)
    pair = smallest_eigenpair(op)
    assert np.sum(pair.f**2) * op.dx == pytest.approx(1.0, abs=1e-12)
    # residual check against the operator action
    T = lambda v: (
        op.diag * v
        + op.off * np.concatenate(([0.0], v[:-1]))
        + op.off * np.concatenate((v[1:], [0.0]))
    )
    r = T(pair.f) - pair.lambda1 * pair.f
    assert np.linalg.norm(r) <= 1e-7 * max(1.0, abs(pair.lambda1)) * np.linalg.norm(pair.f)


def test_harmonic_ground_energy():
    g = grid_of("harmonic", (-12.0, 12.0), 4000)
    pair = smallest_eigenpair(discretize(g))
    assert pair.lambda1 == pytest.approx(1.0, abs=1e-4)
    # frozen independent-solver value
    assert pair.lambda1 == pytest.approx(0.9999977511233527, abs=1e-8)


def test_quartic_ground_energy():
    g = grid_of("quartic", (-12.0, 12.0), 4000)
    pair = smallest_eigenpair(discretize(g))
    assert pair.lambda1 == pytest.approx(1.0603578378298835, abs=1e-8)
    assert pair.lambda1 == pytest.approx(1.060362090484183, abs=1e-4)


def test_linear_well_ground_energy():
    g = grid_of("linearWell", (-12.0, 12.0), 4000)
    pair = smallest_eigenpair(discretize(g))
    assert pair.lambda1 == pytest.approx(1.018793232157501, abs=1e-8)


def test_shift_equivariance_of_eigenpair():
    g = grid_of("harmonic", (-8.0, 8.0), 1000)
    p0 = smallest_eigenpair(discretize(g))
    p1 = smallest_eigenpair(discretize(shift(g, 5.0)))
    assert p1.lambda1 - p0.lambda1 == pytest.approx(5.0, abs=1e-8)
    assert np.max(np.abs(p1.f - p0.f)) < 1e-7


def test_unimodal_ground_state():
    for g in [
        grid_of("harmonic", (-10.0, 10.0), 1500),
        grid_of("linearWell", (-10.0, 10.0), 1500),
        cone_model_potential(64.0, 512),
    ]:
        pair = smallest_eigenpair(discretize(g))
        d = np.diff(pair.f)
        sign_changes = int(np.count_nonzero(np.diff(np.sign(d[d != 0.0])) != 0))
        assert sign_changes <= 1


def test_even_potential_gives_even_eigenvector():
    g = grid_of("harmonic", (-9.0, 9.0), 501)
    pair = smallest_eigenpair(discretize(g))
    assert np.max(np.abs(pair.f - pair.f[::-1])) < 1e-9


def test_grid_convergence_second_order():
    lam = {}
    for n in (250, 500, 1000):
        lam[n] = smallest_eigenpair(discretize(grid_of("harmonic", (-12.0, 12.0), n))).lambda1
    ref = smallest_eigenpair(discretize(grid_of("harmonic", (-12.0, 12.0), 8000))).lambda1
    r1 = abs(lam[250] - ref) / abs(lam[500] - ref)
    r2 = abs(lam[500] - ref) / abs(lam[1000] - ref)
    assert 3.0 < r1 < 5.0
    assert 3.0 < r2 < 5.0


# ---------- rayleigh_quotient ----------


def test_rayleigh_of_ground_state_is_lambda1():
    g = grid_of("harmonic", (-12.0, 12.0), 1500)
    op = discretize(g)
    pair = smallest_eigenpair(op)
    assert rayleigh_quotient(op, pair.f) == pytest.approx(pair.lambda1, abs=1e-9)


def test_rayleigh_of_sine_on_square_well_closed_form():
    n = 300
    op = discretize(grid_of("squareWell", (0.0, 1.0), n))
    x = np.linspace(0, 1, n + 2)[1:-1]
    f = np.sin(np.pi * x)
    assert rayleigh_quotient(op, f) == pytest.approx(closed_form_well(n), rel=1e-12)


def test_rayleigh_variational_lower_bound():
    g = grid_of("linearWell", (-6.0, 6.0), 100)
    op = discretize(g)
    lam1 = smallest_eigenpair(op).lambda1
    rng = np.random.default_rng(11)
    for _ in range(1000):
        f = rng.standard_normal(100)
        assert rayleigh_quotient(op, f) >= lam1 - 1e-10 * max(1.0, abs(lam1))


def test_rayleigh_rejects_zero_vector():
    op = discretize(grid_of("squareWell", (0.0, 1.0), 5))
    with pytest.raises(ParameterError):
        rayleigh_quotient(op, np.zeros(5))


# ---------- sine_testfunction_bound ----------


def test_sine_bound_square_well_recovers_pi2():
    g = grid_of("squareWell", (0.0, 1.0), 1000)
    v = sine_testfunction_bound(g, 0.0)
    assert v == pytest.approx(PI2, abs=1e-3)


def test_sine_bound_harmonic_dominated_by_functional():
    g = grid_of("harmonic", (-12.0, 12.0), 4000)
    v = sine_testfunction_bound(g, 0.5)
    lam1 = smallest_eigenpair(discretize(g)).lambda1
    assert lam1 <= v
    assert v <= PI2 / (4 * 0.5) + 0.5 + 0.05


def test_sine_bound_cone_between_lambda_and_functional():
    D = 100.0
    g = cone_model_potential(D, 800)
    y = D ** (-2.0 / 3.0)
    v = sine_testfunction_bound(g, y)
    lam1 = smallest_eigenpair(discretize(g)).lambda1
    from specgap.sublevel import width

    w = width(g, y)
    assert lam1 <= v <= PI2 / w**2 + y + 1e-9


def test_sine_bound_never_exceeds_sharp_functional_on_suite():
    for g in [
        grid_of("harmonic", (-12.0, 12.0), 2000),
        grid_of("quartic", (-12.0, 12.0), 2000),
        cone_model_potential(32.0, 400),
    ]:
        r = minimize_functional(g)
        v = sine_testfunction_bound(g, r.yStar)
        from specgap.sublevel import width

        w = width(g, r.yStar)
        assert v <= PI2 / w**2 + r.yStar + 1e-9


def test_sine_bound_requires_interval_sublevel():
    x = np.linspace(-2, 2, 1001)
    g = PotentialGrid(a=-2.0, b=2.0, values=(x**2 - 1.0) ** 2)
    with pytest.raises(ParameterError):
        sine_testfunction_bound(g, 0.25)
    with pytest.raises(ParameterError):
        sine_testfunction_bound(g, -1.0)


# ---------- check_linfty_bound ----------


def test_linfty_square_well():
    g = grid_of("squareWell", (0.0, 1.0), 1000)
    pair = smallest_eigenpair(discretize(g))
    ratio, bound, holds = check_linfty_bound(pair, g)
    assert ratio == pytest.approx(math.sqrt(2.0), abs=1e-3)
    assert bound == pytest.approx((2 * PI2) ** 0.25, rel=1e-6)
    assert holds


def test_linfty_harmonic_gaussian_ratio():
    g = grid_of("harmonic", (-12.0, 12.0), 4000)
    pair = smallest_eigenpair(discretize(g))
    ratio, bound, holds = check_linfty_bound(pair, g)
    assert ratio == pytest.approx(math.pi ** (-0.25), abs=1e-3)
    assert bound == pytest.approx(2.0**0.25, rel=1e-4)
    assert holds


def test_linfty_rejects_negative_potential():
    g = shift(grid_of("harmonic", (-2.0, 2.0), 99), -1.0)
    pair = smallest_eigenpair(discretize(g))
    with pytest.raises(ParameterError):
        check_linfty_bound(pair, g)


# ---------- shortest_mass_interval ----------


def test_mass_interval_constant_function():
    f = np.ones(10)
    length, start = shortest_mass_interval(f, dx=0.1, alpha=0.5)
    assert length == pytest.approx(0.5, abs=1e-12)
    assert start == 0
    length, start = shortest_mass_interval(np.ones(11), dx=0.1, alpha=0.5)
    assert length == pytest.approx(0.6, abs=1e-12)


def test_mass_interval_sine_half_mass():
    # centered window solving l + sin(pi l)/pi = 1/2 has length 0.2647418953661504
    n = 20000
    x = np.linspace(0, 1, n + 2)[1:-1]
    f = np.sin(np.pi * x)
    length, start = shortest_mass_interval(f, dx=1.0 / (n + 1), alpha=0.5)
    assert length == pytest.approx(0.2647418953661504, abs=2e-3)
    mid = (start + (length / (1.0 / (n + 1))) / 2.0) / (n + 1)
    assert mid == pytest.approx(0.5, abs=1e-2)


def test_mass_interval_leftmost_tie():
    f = np.array([1.0, 0.0, 1.0])
    length, start = shortest_mass_interval(f, dx=1.0, alpha=0.4)
    assert length == 1.0
    assert start == 0


def test_mass_interval_window_actually_covers_mass():
    rng = np.random.default_rng(3)
    for _ in range(25):
        f = rng.uniform(0, 1, 200) ** 2
        dx = 0.01
        alpha = float(rng.uniform(0.2, 0.9))
        length, start = shortest_mass_interval(f, dx=dx, alpha=alpha)
        k = int(round(length / dx))
        window = f[start : start + k]
        assert np.sum(window**2) * dx >= alpha * np.sum(f**2) * dx - 1e-12


def test_mass_interval_rejects_bad_args():
    with pytest.raises(ParameterError):
        shortest_mass_interval(np.zeros(5), dx=0.1, alpha=0.5)
    with pytest.raises(ParameterError):
        shortest_mass_interval(np.ones(5), dx=0.1, alpha=1.5)


def test_cone_localization_product_sane():
    D = 100.0
    g = cone_model_potential(D, 800)
    op = discretize(g)
    pair = smallest_eigenpair(op)
    length, _ = shortest_mass_interval(pair.f, dx=op.dx, alpha=0.5)
    product = length * math.sqrt(pair.lambda1)
    assert 0.3 < product < 6.0
