import functools
import math

import numpy as np
import pytest

from specgap.constants import ConstantTriple, exact_optimum as src_exact_optimum
from specgap.constants import is_feasible, objective, search
from specgap.errors import ParameterError

REFERENCE = ConstantTriple(alpha=99.0 / 100.0, beta=7.0 / 1000.0, gamma=14.1327)
REFERENCE_VALUE = 0.004078255002164759
_PI2 = math.pi**2
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _gamma_floor(alpha, beta):
    """Test reference: the smallest feasible gamma of (alpha, beta)."""
    return (4.0 / alpha) * (1.0 - beta / _PI2) ** -2 - 1.0


def _ray(alpha, beta):
    """Test reference: gamma -> the objective of (alpha, beta, gamma), or
    -inf when infeasible, one Python float at a time."""
    if not (0.0 < alpha < 1.0 and 0.0 < beta < _PI2):
        return lambda gamma: -math.inf
    head = math.sqrt(alpha) / 2.0 * (1.0 - beta / _PI2)
    cap = min(1.0 - alpha, alpha * beta)

    def value(gamma):
        bracket = head - (1.0 + gamma) ** -0.5 if 0.0 < gamma < math.inf else -1.0
        return min(bracket * bracket / gamma, cap) if bracket >= 0.0 else -math.inf

    return value


def _golden_max(fn, lo, hi, iters):
    """Test reference: golden-section maximization; returns (argmax, value, evals used)."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    evals = 2
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
        evals += 1
    return (x1, f1, evals) if f1 >= f2 else (x2, f2, evals)


def reference_search(budget, seed):
    """Test reference: the search one restart and one evaluation at a time.

    Each restart spawns its own child seed and spends evaluations from the
    budget until it runs out; `search` must match it to the bit.
    """
    evals = 0

    def spend(k):
        nonlocal evals
        if evals + k > budget:
            return False
        evals += k
        return True

    best = REFERENCE
    best_val = _ray(best.alpha, best.beta)(best.gamma)
    evals += 1

    seq = np.random.SeedSequence(seed)
    while evals < budget:
        rng = np.random.default_rng(seq.spawn(1)[0])
        a = float(rng.uniform(0.9, 0.9999))
        b = float(rng.uniform(1e-4, 0.05))
        g0 = _gamma_floor(a, b)
        if not spend(1):
            break
        g = g0 * (1.0 + float(rng.exponential(1.0)))
        val = _ray(a, b)(g)
        for _ in range(3):
            room = min(30, budget - evals)
            if room < 4:
                break
            gg, vv, used = _golden_max(_ray(a, b), g0 * (1.0 + 1e-12), g0 * 100.0, room - 2)
            evals += used
            if vv > val:
                g, val = gg, vv
            radius = 0.05
            for _ in range(4):
                if not spend(1):
                    break
                na = min(max(a + radius * float(rng.standard_normal()), 1e-6), 1 - 1e-12)
                nb = max(b * (1.0 + radius * float(rng.standard_normal())), 1e-9)
                nv = _ray(na, nb)(g)
                if nv > val:
                    a, b, val = na, nb, nv
                    g0 = _gamma_floor(a, b)
                radius *= 0.5
        if val > best_val:
            best, best_val = ConstantTriple(alpha=a, beta=b, gamma=g), val

    return best, best_val


def _bracket(alpha, beta, gamma):
    """Test reference: sqrt(alpha)/2 * (1 - beta/pi^2) - (1+gamma)^(-1/2)"""
    return math.sqrt(alpha) / 2.0 * (1.0 - beta / math.pi**2) - (1.0 + gamma) ** -0.5


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


# search results at the commit before the (alpha, beta) terms were computed
# once per golden-section ray; that change must not move a bit
SEARCH_REPRS = {
    (2000, 0): "(ConstantTriple(alpha=0.9953115216047178, beta=0.011348783696631936, "
    "gamma=14.076078182932068), 0.004116170239064046)",
    (2000, 3): "(ConstantTriple(alpha=0.9955313903148136, beta=0.009908576321419303, "
    "gamma=14.052049758016134), 0.004120548666877154)",
    (200000, 1): "(ConstantTriple(alpha=0.995637389807252, beta=0.004204543577885013, "
    "gamma=14.03159326667883), 0.004131343410296008)",
    (200000, 7): "(ConstantTriple(alpha=0.9957767103853571, beta=0.004482178449833512, "
    "gamma=14.030291387896284), 0.004132059155700996)",
    (37, 2): "(ConstantTriple(alpha=0.9934853002660169, beta=0.007418028031637104, "
    "gamma=14.077091608972992), 0.0041073228809821415)",
}


@pytest.mark.parametrize("budget, seed", list(SEARCH_REPRS))
def test_search_results_are_pinned(budget, seed):
    assert repr(search(budget, seed)) == SEARCH_REPRS[budget, seed]


BUDGETS = [*range(1, 9), *range(30, 36), *range(100, 111), *range(203, 211)]


def _random_pairs(count):
    rng = np.random.default_rng(20)
    return list(zip(rng.integers(1, 3000, count).tolist(), rng.integers(0, 2**32, count).tolist()))


@pytest.mark.parametrize("budget", BUDGETS)
def test_search_matches_the_reference_at_every_cut(budget):
    # one full restart spends 103 evaluations after the reference triple's
    # one, so these budgets cut the last restart in its start, its golden
    # sections and its neighbour steps, or not at all (104, 207)
    for seed in (0, budget):
        assert repr(search(budget, seed)) == repr(reference_search(budget, seed))


def test_search_matches_the_reference_on_random_pairs():
    for budget, seed in _random_pairs(200):
        assert repr(search(budget, seed)) == repr(reference_search(budget, seed)), (budget, seed)


def _closed_form(alpha, beta, gamma):
    """Test reference: the objective in scalar Python floats, None when infeasible."""
    if not (0.0 < alpha < 1.0 and 0.0 < beta < _PI2 and gamma > 0.0):
        return None
    bracket = math.sqrt(alpha) / 2.0 * (1.0 - beta / _PI2) - (1.0 + gamma) ** -0.5
    if bracket < 0.0:
        return None
    return min(bracket * bracket / gamma, 1.0 - alpha, alpha * beta)


def test_objective_is_the_scalar_closed_form_to_the_bit():
    # triples near the search's; np.power(1 + gamma, -0.5) can differ from
    # Python's float power in the last bit (on some machines for about one
    # input in twenty), and the objective must follow Python's
    rng = np.random.default_rng(21)
    alpha = rng.uniform(0.9, 0.9999, 10_000)
    beta = rng.uniform(1e-4, 0.05, 10_000)
    gamma = np.array([_gamma_floor(a, b) for a, b in zip(alpha.tolist(), beta.tolist())])
    gamma *= rng.uniform(0.99, 3.0, 10_000)
    feasible = 0
    for a, b, g in zip(alpha.tolist(), beta.tolist(), gamma.tolist()):
        t = ConstantTriple(alpha=a, beta=b, gamma=g)
        closed = _closed_form(a, b, g)
        assert is_feasible(t) is (closed is not None)
        if closed is not None:
            assert objective(t).hex() == closed.hex(), t
            feasible += 1
    assert 9_000 < feasible < 10_000


@functools.lru_cache(maxsize=None)
def exact_optimum():
    """Test reference: the largest objective any triple reaches.

    At the optimum the three terms are equal, to t: alpha = 1 - t,
    beta = t/(1 - t), and the gradient term, maximized over gamma, is t as
    well. With u = (1+gamma)^(-1/2) that term is (s - u)^2 u^2/(1 - u^2) on
    (0, s), s = sqrt(alpha)/2 (1 - beta/pi^2). Its logarithm is concave there,
    so bisection on the derivative's sign finds the inner maximum; that
    maximum falls as t grows, so bisection on t finds the root.
    """

    def gradient_max(t):
        alpha, beta = 1.0 - t, t / (1.0 - t)
        s = math.sqrt(alpha) / 2.0 * (1.0 - beta / math.pi**2)
        lo, hi = 0.0, s
        for _ in range(100):
            u = 0.5 * (lo + hi)
            if 1.0 / u + u / (1.0 - u * u) > 1.0 / (s - u):
                lo = u
            else:
                hi = u
        return (s - u) ** 2 * u * u / (1.0 - u * u)

    lo, hi = 0.0, 0.5
    for _ in range(100):
        t = 0.5 * (lo + hi)
        if gradient_max(t) > t:
            lo = t
        else:
            hi = t
    return lo


def test_exact_optimum_is_about_one_over_242():
    t_star = exact_optimum()
    assert 1.0 / t_star == pytest.approx(241.9312, abs=1e-4)
    assert REFERENCE_VALUE < t_star
    assert src_exact_optimum() == t_star == 0.0041334072626970095


@pytest.mark.parametrize("budget, seed", list(SEARCH_REPRS))
def test_search_stays_below_the_exact_optimum(budget, seed):
    assert search(budget, seed)[1] <= exact_optimum() * (1.0 + 1e-12)


def test_long_search_is_near_the_exact_optimum():
    t_star = exact_optimum()
    assert (t_star - search(200000, 1)[1]) / t_star < 1e-3
