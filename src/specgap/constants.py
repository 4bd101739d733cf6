"""The three-constant optimization behind the 1/250 spectral constant.

A triple (alpha, beta, gamma) is admissible when alpha sits in (0,1), beta
below pi^2, and gamma is large enough that sqrt(alpha)/2 * (1 - beta/pi^2)
clears (1+gamma)^(-1/2). The figure of merit is the smallest of three terms:
a gradient-energy coefficient, 1 - alpha, and alpha*beta. The known
reference triple (99/100, 7/1000, 14.1327) scores just above 1/250; the
search routine tries to beat it with seeded random restarts plus coordinate
refinement and never returns anything worse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from specgap.errors import ParameterError

_PI2 = math.pi**2
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ConstantTriple:
    alpha: float
    beta: float
    gamma: float


REFERENCE_TRIPLE = ConstantTriple(alpha=99.0 / 100.0, beta=7.0 / 1000.0, gamma=14.1327)


def _bracket(alpha: float, beta: float, gamma: float) -> float:
    """sqrt(alpha)/2 * (1 - beta/pi^2) - (1+gamma)^(-1/2)"""
    return math.sqrt(alpha) / 2.0 * (1.0 - beta / _PI2) - (1.0 + gamma) ** -0.5


def _value(alpha: float, beta: float, gamma: float) -> float:
    """The objective of the triple, or -inf when it is infeasible.

    Feasible means alpha in (0,1), beta in (0, pi^2), finite positive gamma,
    and a nonnegative bracket: sqrt(alpha)/2 * (1 - beta/pi^2) >=
    (1+gamma)^(-1/2), equivalent to gamma >= (4/alpha) * (1 - beta/pi^2)^(-2) - 1.
    A feasible triple scores at least 0, since every term is nonnegative.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < beta < _PI2 and 0.0 < gamma < math.inf):
        return -math.inf
    bracket = _bracket(alpha, beta, gamma)
    if bracket < 0.0:
        return -math.inf
    return min(bracket * bracket / gamma, 1.0 - alpha, alpha * beta)


def is_feasible(t: ConstantTriple) -> bool:
    """alpha in (0,1), beta in (0, pi^2), and finite gamma past its lower threshold."""
    return _value(t.alpha, t.beta, t.gamma) > -math.inf


def objective(t: ConstantTriple) -> float:
    """min of the gradient term, 1 - alpha, and alpha*beta, for feasible t."""
    value = _value(t.alpha, t.beta, t.gamma)
    if value == -math.inf:
        raise ParameterError(f"infeasible triple {t}")
    return value


def _gamma_floor(alpha: float, beta: float) -> float:
    return (4.0 / alpha) * (1.0 - beta / _PI2) ** -2 - 1.0


def _golden_max(fn, lo: float, hi: float, iters: int) -> Tuple[float, float, int]:
    """Golden-section maximization; returns (argmax, value, evals used)."""
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


def search(budget: int, seed: int) -> Tuple[ConstantTriple, float]:
    """Best feasible triple found within a budget of objective evaluations.

    The reference triple is always evaluated first, so the result can never
    fall below its value. Each restart draws fresh (alpha, beta) from a
    child seed, lifts gamma above its floor, refines gamma by golden
    section, then shrinks a local random neighborhood around (alpha, beta).
    Deterministic for fixed (budget, seed).
    """
    if budget < 1:
        raise ParameterError(f"budget must be at least 1, got {budget}")

    evals = 0

    def spend(k: int) -> bool:
        nonlocal evals
        if evals + k > budget:
            return False
        evals += k
        return True

    best = REFERENCE_TRIPLE
    best_val = objective(best)
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
        val = _value(a, b, g)
        for _ in range(3):
            # refine gamma along its whole admissible ray
            room = min(30, budget - evals)
            if room < 4:
                break
            gg, vv, used = _golden_max(
                lambda x: _value(a, b, x), g0 * (1.0 + 1e-12), g0 * 100.0, room - 2
            )
            evals += used
            if vv > val:
                g, val = gg, vv
            # shrinking random neighborhood around (alpha, beta)
            radius = 0.05
            for _ in range(4):
                if not spend(1):
                    break
                na = min(max(a + radius * float(rng.standard_normal()), 1e-6), 1 - 1e-12)
                nb = max(b * (1.0 + radius * float(rng.standard_normal())), 1e-9)
                nv = _value(na, nb, g)
                if nv > val:
                    a, b, val = na, nb, nv
                    g0 = _gamma_floor(a, b)
                radius *= 0.5
        if val > best_val:
            best, best_val = ConstantTriple(alpha=a, beta=b, gamma=g), val

    return best, best_val
