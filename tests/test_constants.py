import math

import numpy as np
import pytest

from specgap.constants import (
    ConstantTriple,
    _bracket,
    _gamma_floor,
    _golden_max,
    is_feasible,
    objective,
    search,
)
from specgap.errors import ParameterError

REFERENCE = ConstantTriple(alpha=99.0 / 100.0, beta=7.0 / 1000.0, gamma=14.1327)
REFERENCE_VALUE = 0.004078255002164759


def case2_gradient_term(t):
    """Test reference: (1/gamma) * [sqrt(alpha)/2 * (1 - beta/pi^2) - (1+gamma)^(-1/2)]^2"""
    if not t.gamma > 0:
        raise ParameterError(f"gamma must be positive, got {t.gamma}")
    bracket = _bracket(t.alpha, t.beta, t.gamma)
    return bracket * bracket / t.gamma


def locally_optimal_gamma(alpha, beta, iters=80):
    """Test reference: the gamma maximizing the gradient term for fixed (alpha, beta)."""
    g0 = _gamma_floor(alpha, beta)
    fn = lambda g: case2_gradient_term(ConstantTriple(alpha=alpha, beta=beta, gamma=g))
    return _golden_max(fn, g0 * (1.0 + 1e-12), g0 * 100.0, iters)[0]


def test_gradient_term_reference_triple():
    v = case2_gradient_term(REFERENCE)
    assert v == pytest.approx(REFERENCE_VALUE, abs=1e-12)
    assert v == pytest.approx(0.0040782, abs=1e-6)


def test_gradient_term_beta_at_pi_squared():
    t = ConstantTriple(alpha=0.3, beta=math.pi**2, gamma=1.0)
    assert case2_gradient_term(t) == pytest.approx(0.5, abs=1e-15)


def test_gradient_term_alpha_zero_limit():
    t = ConstantTriple(alpha=0.0, beta=1.0, gamma=3.0)
    assert case2_gradient_term(t) == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_gradient_term_requires_positive_gamma():
    with pytest.raises(ParameterError):
        case2_gradient_term(ConstantTriple(alpha=0.5, beta=0.5, gamma=0.0))


def test_feasibility_reference_true():
    assert is_feasible(REFERENCE) is True


def test_feasibility_counterexamples():
    assert is_feasible(ConstantTriple(alpha=0.5, beta=0.1, gamma=1.0)) is False
    assert is_feasible(ConstantTriple(alpha=1.0, beta=0.1, gamma=100.0)) is False
    assert is_feasible(ConstantTriple(alpha=0.5, beta=0.0, gamma=100.0)) is False
    assert is_feasible(ConstantTriple(alpha=0.5, beta=math.pi**2, gamma=100.0)) is False
    assert is_feasible(ConstantTriple(alpha=-0.1, beta=1.0, gamma=5.0)) is False


def test_feasibility_boundary_gamma():
    a, b = 0.8, 0.5
    g0 = (4.0 / a) * (1.0 - b / math.pi**2) ** (-2) - 1.0
    assert is_feasible(ConstantTriple(alpha=a, beta=b, gamma=g0 * (1 + 1e-12))) is True
    assert is_feasible(ConstantTriple(alpha=a, beta=b, gamma=g0 * (1 - 1e-6))) is False


def test_feasibility_monotone_in_gamma():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = rng.uniform(0.1, 0.99)
        b = rng.uniform(0.01, 0.9 * math.pi**2)
        g0 = (4.0 / a) * (1.0 - b / math.pi**2) ** (-2) - 1.0
        t = ConstantTriple(alpha=a, beta=b, gamma=g0 * 1.001)
        if is_feasible(t):
            assert is_feasible(ConstantTriple(alpha=a, beta=b, gamma=t.gamma * 2)) is True


def test_objective_reference():
    v = objective(REFERENCE)
    assert v == pytest.approx(REFERENCE_VALUE, abs=1e-12)
    assert v >= 1.0 / 250.0


def test_objective_takes_min_of_three_terms():
    # frozen spot value: gradient term dominates the min here
    t = ConstantTriple(alpha=0.9, beta=0.5, gamma=40.0)
    assert objective(t) == pytest.approx(0.0021629211119033369, abs=1e-14)


def test_objective_bounded_by_one_minus_alpha():
    rng = np.random.default_rng(14)
    found = 0
    while found < 20:
        a = rng.uniform(0.3, 0.99)
        b = rng.uniform(0.01, 5.0)
        g0 = (4.0 / a) * (1.0 - b / math.pi**2) ** (-2) - 1.0
        t = ConstantTriple(alpha=a, beta=b, gamma=g0 * rng.uniform(1.5, 30.0))
        if is_feasible(t):
            assert objective(t) <= 1.0 - a
            found += 1


def test_objective_rejects_infeasible():
    with pytest.raises(ParameterError):
        objective(ConstantTriple(alpha=0.5, beta=0.1, gamma=1.0))


def test_locally_optimal_gamma_matches_reference():
    g = locally_optimal_gamma(99.0 / 100.0, 7.0 / 1000.0)
    assert g == pytest.approx(14.132727006389188, abs=1e-3)
    t = ConstantTriple(alpha=99.0 / 100.0, beta=7.0 / 1000.0, gamma=g)
    assert case2_gradient_term(t) >= REFERENCE_VALUE - 1e-12


def test_search_budget_one_returns_reference():
    best, value = search(budget=1, seed=0)
    assert (best.alpha, best.beta, best.gamma) == (
        REFERENCE.alpha,
        REFERENCE.beta,
        REFERENCE.gamma,
    )
    assert value == pytest.approx(REFERENCE_VALUE, abs=1e-12)


def test_search_never_regresses_and_is_feasible():
    best, value = search(budget=400, seed=7)
    assert value >= REFERENCE_VALUE - 1e-15
    assert is_feasible(best)
    assert objective(best) == pytest.approx(value, abs=1e-15)


def test_search_deterministic():
    b1, v1 = search(budget=600, seed=123)
    b2, v2 = search(budget=600, seed=123)
    assert (b1.alpha, b1.beta, b1.gamma) == (b2.alpha, b2.beta, b2.gamma)
    assert v1 == v2


def test_search_finds_improvement_with_moderate_budget():
    _, value = search(budget=5000, seed=1)
    assert value > REFERENCE_VALUE
    assert value >= 1.0 / 250.0


def test_search_rejects_bad_budget():
    with pytest.raises(ParameterError):
        search(budget=0, seed=0)
