import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solveh_banded
from scipy.linalg.lapack import dptsv

from specgap import eigensolve1d
from specgap.eigensolve1d import smallest_eigenpair
from specgap.errors import ParameterError
from specgap.pipeline import THM1
from specgap.potential import PotentialGrid, PotentialSpec, sample
from specgap.sublevel import minimize_functional, width
from test_potential import cone_model, shift
from test_sublevel import is_interval_sublevel

PI2 = math.pi**2


def grid_of(kind, interval, n, params=()):
    return sample(PotentialSpec(kind=kind, params=list(params), interval=interval), n)


def closed_form_well(n):
    dx = 1.0 / (n + 1)
    return (2.0 / dx**2) * (1.0 - math.cos(math.pi * dx))


# ---------- smallest_eigenpair ----------


def hard_grids():
    """Grids on [0, 1] at n = 50 and 400 where a shift from Weyl's bound starts
    far from lambda1, or lambda1 sits close to lambda2: a narrow well under a
    1e8 barrier, V = -1e6, V = 1e9, linear V from -1e4 to 1e4, twin wells."""
    grids = []
    for n in (50, 400):
        x = np.linspace(0.0, 1.0, n + 2)
        for values in (
            np.where(np.abs(x - 0.5) < 0.05, 0.0, 1e8),
            np.full(n + 2, -1e6),
            np.full(n + 2, 1e9),
            -1e4 + 2e4 * x,
            np.where(np.abs(x - 0.3) < 0.1, 0.0, np.where(np.abs(x - 0.7) < 0.1, 1.0, 1e3)),
        ):
            grids.append(PotentialGrid(a=0.0, b=1.0, values=values))
    return grids


def dense_lambda1(g):
    off = np.full(g.n - 1, -1.0 / g.dx**2)
    dense = np.diag(2.0 / g.dx**2 + g.values[1:-1]) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(dense)[0]


def test_lambda1_matches_dense_solver():
    rng = np.random.default_rng(7)
    grids = [
        PotentialGrid(a=0.0, b=1.0, values=rng.uniform(0.0, 30.0, n + 2))
        for n in rng.integers(8, 60, size=10)
    ]
    for g in grids + hard_grids():
        pair = smallest_eigenpair(g)
        assert pair.lambda1 == pytest.approx(dense_lambda1(g), rel=1e-10)
        assert np.all(pair.f > 0)


def test_few_solves_per_eigenpair(monkeypatch):
    # the shift rises quadratically onto lambda1, so few solves reach the residual target
    calls = []
    monkeypatch.setattr(eigensolve1d, "dptsv", lambda *a, **k: calls.append(1) or dptsv(*a, **k))
    for g in [sample(*spec_n) for spec_n in THM1.values()] + hard_grids():
        calls.clear()
        smallest_eigenpair(g)
        assert 1 <= len(calls) <= 8


def test_lapack_call_matches_the_scipy_wrapper(monkeypatch):
    # ptsv called directly gives the bits that scipy's solveh_banded, which
    # dispatches a two-row band to ptsv, gave before it
    def wrapped(d, e, b):
        ab = np.zeros((2, d.size))
        ab[0, 1:], ab[1] = e, d
        try:
            return d, e, solveh_banded(ab, b, check_finite=False), 0
        except LinAlgError:
            return d, e, None, 1

    grids = [sample(*spec_n) for spec_n in THM1.values()] + hard_grids()
    direct = [smallest_eigenpair(g) for g in grids]
    monkeypatch.setattr(eigensolve1d, "dptsv", wrapped)
    for pair, g in zip(direct, grids):
        reference = smallest_eigenpair(g)
        assert pair.lambda1 == reference.lambda1 and pair.residual == reference.residual
        assert np.array_equal(pair.f, reference.f)


def test_lambda1_is_relative_at_any_scale():
    # x -> L x scales the spectrum by 1/L^2, and the residual target scales
    # with lambda1, so lambda1 ~ 5e-9 at L = 1e5 is as accurate as at L = 1
    n = 200
    unit = 300.0 * np.abs(np.linspace(0.0, 1.0, n + 2) - 0.3)
    ref = smallest_eigenpair(PotentialGrid(a=0.0, b=1.0, values=unit)).lambda1
    for length in (1e-3, 1e5):
        g = PotentialGrid(a=0.0, b=length, values=unit / length**2)
        lam = smallest_eigenpair(g).lambda1
        assert lam * length**2 == pytest.approx(ref, rel=1e-10)
        assert lam == pytest.approx(dense_lambda1(g), rel=1e-10)


def test_constant_potential_vector_is_the_discrete_sine():
    # one solve from a shift 0.2 below lambda1, against a gap of about 30,
    # meets the residual target with the vector still 1e-3 off the sine
    n = 4000
    g = PotentialGrid(a=0.0, b=1.0, values=np.full(n + 2, 1e9))
    pair = smallest_eigenpair(g)
    sine = np.sin(np.pi * np.arange(1, n + 1) * g.dx)
    sine /= math.sqrt(float(np.sum(sine * sine)) * g.dx)
    assert np.max(np.abs(pair.f - sine)) / np.max(sine) <= 1e-6


def test_ground_state_positive_in_the_tails():
    # the tails are tiny, yet they must stay positive rather than carry sign noise
    for g in [
        grid_of("quartic", (-12.0, 12.0), 4000),
        grid_of("harmonic", (-12.0, 12.0), 100000),
        cone_model(1024.0, 8192),
    ]:
        assert np.all(smallest_eigenpair(g).f > 0)


def test_square_well_matches_discrete_closed_form():
    g = grid_of("squareWell", (0.0, 1.0), 1000)
    pair = smallest_eigenpair(g)
    exact = closed_form_well(1000)
    assert pair.lambda1 == pytest.approx(exact, rel=1e-10)
    assert abs(pair.lambda1 - PI2) / PI2 < 1e-5


def test_square_well_eigenvector_is_sine():
    n = 400
    g = grid_of("squareWell", (0.0, 1.0), n)
    pair = smallest_eigenpair(g)
    x = np.linspace(0, 1, n + 2)[1:-1]
    ref = np.sqrt(2.0) * np.sin(np.pi * x)
    # discrete normalization differs from the continuum by O(dx^2)
    assert np.max(np.abs(pair.f - ref)) < 1e-3
    assert np.all(pair.f > 0)
    assert pair.normL2 == pytest.approx(1.0, abs=1e-12)


def test_eigenvector_quadrature_norm_and_residual():
    g = grid_of("harmonic", (-12.0, 12.0), 2000)
    pair = smallest_eigenpair(g)
    assert np.sum(pair.f**2) * g.dx == pytest.approx(1.0, abs=1e-12)
    # residual check against the operator action
    T = lambda v: (
        (2.0 / g.dx**2 + g.values[1:-1]) * v
        - np.concatenate(([0.0], v[:-1])) / g.dx**2
        - np.concatenate((v[1:], [0.0])) / g.dx**2
    )
    r = T(pair.f) - pair.lambda1 * pair.f
    assert np.linalg.norm(r) <= 1e-7 * max(1.0, abs(pair.lambda1)) * np.linalg.norm(pair.f)


def test_harmonic_ground_energy():
    g = grid_of("harmonic", (-12.0, 12.0), 4000)
    pair = smallest_eigenpair(g)
    assert pair.lambda1 == pytest.approx(1.0, abs=1e-4)
    # frozen independent-solver value
    assert pair.lambda1 == pytest.approx(0.9999977511233527, abs=1e-8)


def test_quartic_ground_energy():
    g = grid_of("quartic", (-12.0, 12.0), 4000)
    pair = smallest_eigenpair(g)
    assert pair.lambda1 == pytest.approx(1.0603578378298835, abs=1e-8)
    assert pair.lambda1 == pytest.approx(1.060362090484183, abs=1e-4)


def test_linear_well_ground_energy():
    g = grid_of("linearWell", (-12.0, 12.0), 4000)
    pair = smallest_eigenpair(g)
    assert pair.lambda1 == pytest.approx(1.018793232157501, abs=1e-8)


def test_shift_equivariance_of_eigenpair():
    g = grid_of("harmonic", (-8.0, 8.0), 1000)
    p0 = smallest_eigenpair(g)
    p1 = smallest_eigenpair(shift(g, 5.0))
    assert p1.lambda1 - p0.lambda1 == pytest.approx(5.0, abs=1e-8)
    assert np.max(np.abs(p1.f - p0.f)) < 1e-7


def test_unimodal_ground_state():
    for g in [
        grid_of("harmonic", (-10.0, 10.0), 1500),
        grid_of("linearWell", (-10.0, 10.0), 1500),
        cone_model(64.0, 512),
    ]:
        pair = smallest_eigenpair(g)
        d = np.diff(pair.f)
        sign_changes = int(np.count_nonzero(np.diff(np.sign(d[d != 0.0])) != 0))
        assert sign_changes <= 1


def test_even_potential_gives_even_eigenvector():
    g = grid_of("harmonic", (-9.0, 9.0), 501)
    pair = smallest_eigenpair(g)
    assert np.max(np.abs(pair.f - pair.f[::-1])) < 1e-9


def test_grid_convergence_second_order():
    lam = {}
    for n in (250, 500, 1000):
        lam[n] = smallest_eigenpair(grid_of("harmonic", (-12.0, 12.0), n)).lambda1
    ref = smallest_eigenpair(grid_of("harmonic", (-12.0, 12.0), 8000)).lambda1
    r1 = abs(lam[250] - ref) / abs(lam[500] - ref)
    r2 = abs(lam[500] - ref) / abs(lam[1000] - ref)
    assert 3.0 < r1 < 5.0
    assert 3.0 < r2 < 5.0


# ---------- rayleigh_quotient (test reference) ----------


def rayleigh_quotient(grid, f):
    """(sum of squared forward differences + sum V f^2) / sum f^2 over the
    interior nodes, with zero boundary values on both sides."""
    f = np.asarray(f, dtype=float)
    den = float(np.sum(f * f))
    if den == 0.0:
        raise ParameterError("Rayleigh quotient of the zero vector")
    grad = np.diff(np.concatenate(([0.0], f, [0.0]))) / grid.dx
    return (float(np.sum(grad * grad)) + float(np.sum(grid.values[1:-1] * f * f))) / den


def test_rayleigh_of_ground_state_is_lambda1():
    g = grid_of("harmonic", (-12.0, 12.0), 1500)
    pair = smallest_eigenpair(g)
    assert rayleigh_quotient(g, pair.f) == pytest.approx(pair.lambda1, abs=1e-9)


def test_rayleigh_of_sine_on_square_well_closed_form():
    n = 300
    g = grid_of("squareWell", (0.0, 1.0), n)
    x = np.linspace(0, 1, n + 2)[1:-1]
    f = np.sin(np.pi * x)
    assert rayleigh_quotient(g, f) == pytest.approx(closed_form_well(n), rel=1e-12)


def test_rayleigh_variational_lower_bound():
    g = grid_of("linearWell", (-6.0, 6.0), 100)
    lam1 = smallest_eigenpair(g).lambda1
    rng = np.random.default_rng(11)
    for _ in range(1000):
        f = rng.standard_normal(100)
        assert rayleigh_quotient(g, f) >= lam1 - 1e-10 * max(1.0, abs(lam1))


def test_rayleigh_rejects_zero_vector():
    g = grid_of("squareWell", (0.0, 1.0), 5)
    with pytest.raises(ParameterError):
        rayleigh_quotient(g, np.zeros(5))


# ---------- sine_testfunction_bound (test reference) ----------


def sine_testfunction_bound(grid, y):
    """Rayleigh quotient of a sine bump supported on the sublevel set at y,
    which must be one nonempty interval of interior nodes.

    It never exceeds pi^2/w(y)^2 + y: the discrete sine energy on a window
    of length W is (2/dx^2)(1 - cos(pi dx / W)), at most (pi/W)^2, and the
    potential is at most y on the window.
    """
    if not is_interval_sublevel(grid, y):
        raise ParameterError(f"sublevel set at y={y} is empty or not an interval")
    inside = np.flatnonzero(grid.values[1:-1] <= y)
    i0, i1 = int(inside[0]), int(inside[-1])
    window = (i1 - i0 + 2) * grid.dx
    xs = grid.nodes()[1:-1]
    f = np.zeros(grid.n)
    f[i0 : i1 + 1] = np.sin(math.pi * (xs[i0 : i1 + 1] - (grid.a + i0 * grid.dx)) / window)
    return rayleigh_quotient(grid, f)


def test_sine_bound_square_well_recovers_pi2():
    g = grid_of("squareWell", (0.0, 1.0), 1000)
    v = sine_testfunction_bound(g, 0.0)
    assert v == pytest.approx(PI2, abs=1e-3)


def test_sine_bound_harmonic_dominated_by_functional():
    g = grid_of("harmonic", (-12.0, 12.0), 4000)
    v = sine_testfunction_bound(g, 0.5)
    lam1 = smallest_eigenpair(g).lambda1
    assert lam1 <= v
    assert v <= PI2 / (4 * 0.5) + 0.5 + 0.05


def test_sine_bound_cone_between_lambda_and_functional():
    D = 100.0
    g = cone_model(D, 800)
    y = D ** (-2.0 / 3.0)
    v = sine_testfunction_bound(g, y)
    lam1 = smallest_eigenpair(g).lambda1
    w = width(g, y)
    assert lam1 <= v <= PI2 / w**2 + y + 1e-9


def test_sine_bound_never_exceeds_sharp_functional_on_suite():
    for g in [
        grid_of("harmonic", (-12.0, 12.0), 2000),
        grid_of("quartic", (-12.0, 12.0), 2000),
        cone_model(32.0, 400),
    ]:
        r = minimize_functional(g)
        v = sine_testfunction_bound(g, r.yStar)
        w = width(g, r.yStar)
        assert v <= PI2 / w**2 + r.yStar + 1e-9


def test_sine_bound_requires_interval_sublevel():
    x = np.linspace(-2, 2, 1001)
    g = PotentialGrid(a=-2.0, b=2.0, values=(x**2 - 1.0) ** 2)
    with pytest.raises(ParameterError):
        sine_testfunction_bound(g, 0.25)
    with pytest.raises(ParameterError):
        sine_testfunction_bound(g, -1.0)


# ---------- shortest_mass_interval (test reference) ----------


def shortest_mass_interval(f, dx, alpha):
    """Shortest window of consecutive nodes holding an alpha fraction of the
    squared mass, as (length in x units, start index); ties resolve to the
    leftmost window."""
    f = np.asarray(f, dtype=float)
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0,1), got {alpha}")
    m = f * f * dx
    total = float(np.sum(m))
    if total == 0.0:
        raise ParameterError("mass interval of the zero vector")
    prefix = np.concatenate(([0.0], np.cumsum(m)))
    ends = np.searchsorted(prefix, prefix[:-1] + alpha * total * (1.0 - 1e-12), side="left")
    valid = ends <= len(m)
    if not np.any(valid):
        raise ParameterError("no window reaches the requested mass fraction")
    lengths = np.where(valid, ends - np.arange(len(m)), len(m) + 1)
    start = int(np.argmin(lengths))
    return int(lengths[start]) * dx, start


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
    g = cone_model(D, 800)
    pair = smallest_eigenpair(g)
    length, _ = shortest_mass_interval(pair.f, dx=g.dx, alpha=0.5)
    product = length * math.sqrt(pair.lambda1)
    assert 0.3 < product < 6.0
