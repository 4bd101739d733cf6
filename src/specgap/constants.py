"""The three-constant optimization behind the 1/250 spectral constant.

A triple (alpha, beta, gamma) is admissible when alpha sits in (0,1), beta
below pi^2, and gamma is large enough that sqrt(alpha)/2 * (1 - beta/pi^2)
clears (1+gamma)^(-1/2). The figure of merit is the smallest of three terms:
a gradient-energy coefficient, 1 - alpha, and alpha*beta. The known
reference triple (99/100, 7/1000, 14.1327) scores just above 1/250; the
search routine tries to beat it with seeded random restarts plus coordinate
refinement and never returns anything worse. All restarts advance together,
one numpy array entry each, through one objective formula that also serves
single triples. exact_optimum is the best value any triple reaches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from specgap.errors import ParameterError

_PI2 = math.pi**2
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# evaluations of one restart: its start, then three rounds of a golden
# section (2 + _GOLDEN_ITERS) and _NEIGHBOUR_STEPS neighbour steps
_GOLDEN_ITERS = 28
_NEIGHBOUR_STEPS = 4
_ROUNDS = 3
_RESTART_EVALS = 1 + _ROUNDS * (2 + _GOLDEN_ITERS + _NEIGHBOUR_STEPS)


@dataclass(frozen=True)
class ConstantTriple:
    alpha: float
    beta: float
    gamma: float


REFERENCE_TRIPLE = ConstantTriple(alpha=99.0 / 100.0, beta=7.0 / 1000.0, gamma=14.1327)


def _pow(x: np.ndarray, p: float) -> np.ndarray:
    """x**p entrywise by Python's float power, the C pow: np.power can differ
    from it in the last bit, which would move the search's comparisons."""
    return np.array([v**p for v in x.tolist()])


def _values(alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The objective of each triple, or -inf where it is infeasible.

    Feasible means alpha in (0,1), beta in (0, pi^2), finite positive gamma,
    and a nonnegative bracket: sqrt(alpha)/2 * (1 - beta/pi^2) >=
    (1+gamma)^(-1/2), equivalent to gamma >= (4/alpha) * (1 - beta/pi^2)^(-2) - 1.
    A feasible triple scores at least 0, since every term is nonnegative.
    """
    ok = (0.0 < alpha) & (alpha < 1.0) & (0.0 < beta) & (beta < _PI2)
    ok &= (0.0 < gamma) & (gamma < math.inf)
    # infeasible entries get harmless stand-ins, then -inf
    alpha, beta, gamma = (np.where(ok, x, 0.5) for x in (alpha, beta, gamma))
    bracket = np.sqrt(alpha) / 2.0 * (1.0 - beta / _PI2) - _pow(1.0 + gamma, -0.5)
    value = np.minimum(bracket * bracket / gamma, np.minimum(1.0 - alpha, alpha * beta))
    return np.where(ok & (bracket >= 0.0), value, -math.inf)


def _value(t: ConstantTriple) -> float:
    return float(_values(*(np.array([x], dtype=float) for x in (t.alpha, t.beta, t.gamma)))[0])


def is_feasible(t: ConstantTriple) -> bool:
    """alpha in (0,1), beta in (0, pi^2), and finite gamma past its lower threshold."""
    return _value(t) > -math.inf


def objective(t: ConstantTriple) -> float:
    """min of the gradient term, 1 - alpha, and alpha*beta, for feasible t."""
    value = _value(t)
    if value == -math.inf:
        raise ParameterError(f"infeasible triple {t}")
    return value


def _gamma_floor(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    return (4.0 / alpha) * _pow(1.0 - beta / _PI2, -2) - 1.0


def _golden_step(alpha, beta, lo, hi, x1, f1, x2, f2):
    """One golden-section step of every restart: drop the worse end, evaluate one point."""
    up = f1 < f2
    lo = np.where(up, x1, lo)
    hi = np.where(up, hi, x2)
    x = np.where(up, lo + _GOLDEN * (hi - lo), hi - _GOLDEN * (hi - lo))
    fx = _values(alpha, beta, x)
    x1, x2 = np.where(up, x2, x), np.where(up, x, x1)
    f1, f2 = np.where(up, f2, fx), np.where(up, fx, f1)
    return lo, hi, x1, f1, x2, f2


def search(budget: int, seed: int) -> Tuple[ConstantTriple, float]:
    """Best feasible triple found within a budget of objective evaluations.

    The reference triple is always evaluated first, so the result can never
    fall below its value. Each restart draws fresh (alpha, beta) from its
    own child seed, lifts gamma above its floor, then three times refines
    gamma by golden section over its whole admissible ray (30 evaluations)
    and tries four steps of a shrinking random neighbourhood around
    (alpha, beta): 103 evaluations in all. The restarts run in lockstep, one
    array entry each; only the last can be cut short by the budget, and
    per-restart masks stop its golden section and neighbour steps exactly
    where the budget runs out. The best restart is the first with the
    largest value, and replaces the reference only when strictly better.
    Deterministic for fixed (budget, seed).
    """
    if budget < 1:
        raise ParameterError(f"budget must be at least 1, got {budget}")
    best, best_val = REFERENCE_TRIPLE, objective(REFERENCE_TRIPLE)
    n = -(-(budget - 1) // _RESTART_EVALS)  # restarts, the last maybe cut short
    if n == 0:
        return best, best_val

    draws = np.empty((n, 3 + 2 * _ROUNDS * _NEIGHBOUR_STEPS))
    for row, child in zip(draws, np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(child)
        row[:3] = rng.uniform(0.9, 0.9999), rng.uniform(1e-4, 0.05), rng.exponential(1.0)
        row[3:] = rng.standard_normal(row.size - 3)
    a, b = draws[:, 0], draws[:, 1]
    g0 = _gamma_floor(a, b)
    g = g0 * (1.0 + draws[:, 2])
    val = _values(a, b, g)
    left = np.minimum(budget - 1 - _RESTART_EVALS * np.arange(n), _RESTART_EVALS)
    spent = np.ones(n, dtype=np.int64)

    normals = iter(draws[:, 3:].T)
    for _ in range(_ROUNDS):
        room = np.minimum(2 + _GOLDEN_ITERS, left - spent)
        live = room >= 4
        lo, hi = g0 * (1.0 + 1e-12), g0 * 100.0
        x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        state = (lo, hi, x1, _values(a, b, x1), x2, _values(a, b, x2))
        for it in range(_GOLDEN_ITERS):
            step = it < room - 2
            stepped = _golden_step(a, b, *state)
            state = tuple(np.where(step, new, old) for new, old in zip(stepped, state))
        _, _, x1, f1, x2, f2 = state
        vv = np.where(f1 >= f2, f1, f2)
        better = live & (vv > val)
        g, val = np.where(better, np.where(f1 >= f2, x1, x2), g), np.where(better, vv, val)
        spent += np.where(live, room, 0)

        radius = 0.05
        for _ in range(_NEIGHBOUR_STEPS):
            step = live & (spent < left)
            spent += step
            na = np.minimum(np.maximum(a + radius * next(normals), 1e-6), 1 - 1e-12)
            nb = np.maximum(b * (1.0 + radius * next(normals)), 1e-9)
            nv = _values(na, nb, g)
            better = step & (nv > val)
            a, b, val = np.where(better, na, a), np.where(better, nb, b), np.where(better, nv, val)
            g0 = np.where(better, _gamma_floor(a, b), g0)
            radius *= 0.5

    i = int(np.argmax(val))
    if val[i] > best_val:
        best = ConstantTriple(alpha=float(a[i]), beta=float(b[i]), gamma=float(g[i]))
        best_val = float(val[i])
    return best, best_val


@functools.lru_cache(maxsize=None)
def exact_optimum() -> float:
    """The largest objective any triple reaches, about 1/241.93.

    At the optimum the three terms are equal, to t: alpha = 1 - t,
    beta = t/(1 - t), and the gradient term, maximized over gamma, is t as
    well. With u = (1+gamma)^(-1/2) that term is (s - u)^2 u^2/(1 - u^2) on
    (0, s), s = sqrt(alpha)/2 (1 - beta/pi^2). Its logarithm is concave there,
    so bisection on the derivative's sign finds the inner maximum; that
    maximum falls as t grows, so bisection on t finds the root.
    """

    def gradient_max(t):
        alpha, beta = 1.0 - t, t / (1.0 - t)
        s = math.sqrt(alpha) / 2.0 * (1.0 - beta / _PI2)
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
