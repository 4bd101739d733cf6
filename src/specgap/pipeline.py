"""Shared run plumbing: benchmark suites, sweep loops, and named checks.

Every function here returns plain dicts and lists, and a runner its CSV
columns as lists or arrays, so the CLI can dump them to JSON/CSV
unchanged and the acceptance tests can inspect the same numbers the
command line reports. A runner's verdicts are its summary["checks"].
A runner takes its config keys as `cli.COERCE` leaves them, coerced and
range-checked, so it only computes.
"""

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .convexdomain import (
    ConvexPolygon,
    HeightFunction,
    diameter,
    generate_family,
    gj_potential,
    inradius,
    localization_scale,
    longest_run,
    minimal_width,
    normalize_gj,
)
from .constants import ConstantTriple, exact_optimum, is_feasible, objective, search
from .eigensolve1d import Eigenpair1D, smallest_eigenpair
from .eigensolve2d import Eigenpair2D, rasterize, smallest_eigenpair_2d
from .errors import ParameterError
from .potential import PotentialGrid, PotentialSpec, sample
from .rearrange import verify_chain
from .sublevel import SublevelReport, minimize_functional, width, width_profile

_PI2 = math.pi**2

SANDWICH_SLACK = 0.01
LINF_SLACK = 0.01  # sup|f| <= (2 lambda1)^(1/4) (1 + LINF_SLACK + 2 dx), at unit L2 norm
CHAIN_SLACK_FACTOR = 10.0  # rearrangement allowance: this factor times dx range(V) max|f|^2
CONE_BENCH_N_FACTOR = 8

# pass bands of the thin-domain checks
PRODUCT_BAND = (1.0 / 20.0, 20.0)  # (lambda1 - pi^2) L^2, domainSweep and vdberg
RATIO_BAND = (0.5, 2.0)  # 2D normalized energy over the 1D channel energy
GJ_RATIO_BAND = (0.25, 4.0)  # channel excess energy over the cone model's
RECT_ERROR_BUDGET = 1e-2  # 8x1 rectangle: 2D ground state against its 1D profile
RHO_TOL = 1e-3  # |inradius - 1| of the generated cones
STAT_SPREAD_MAX = 2.0  # max/min of the sup-norm statistic across D
SLOPE_MAX = -1.0 / 6.0 + 0.05  # log-log slope of the sup ratio against D


def _cone_model(d: float) -> Tuple[PotentialSpec, int]:
    """The cone model potential on [0, D], with CONE_BENCH_N_FACTOR nodes per unit length."""
    spec = PotentialSpec("coneModel", (float(d),), (0.0, float(d)))
    return spec, int(round(CONE_BENCH_N_FACTOR * d))


# the Theorem 1 suite: each member's spec and node count; all are nonnegative
THM1: Dict[str, Tuple[PotentialSpec, int]] = {
    "squareWell": (PotentialSpec("squareWell", (), (0.0, 1.0)), 1000),
    "linearWell": (PotentialSpec("linearWell", (1.0, 0.0), (-12.0, 12.0)), 4000),
    "harmonic": (PotentialSpec("harmonic", (0.0,), (-12.0, 12.0)), 4000),
    "quartic": (PotentialSpec("quartic", (0.0,), (-12.0, 12.0)), 4000),
    **{f"coneModel{d}": _cone_model(d) for d in (16, 64, 256)},
}


def _check(name: str, value, lo, hi) -> dict:
    """The named check lo <= value <= hi. An open side is None, never an
    infinity, so the summary stays strict JSON."""
    ok = (lo is None or lo <= value) and (hi is None or value <= hi)
    return {"name": name, "value": value, "bound": [lo, hi], "pass": int(ok)}


def bound(kind, params, interval, n):
    """The sublevel-width bounds of one potential, and its width profile."""
    grid = sample(PotentialSpec(kind=kind, params=params, interval=interval), n)
    report, levels, widths, functional = width_profile(grid)
    summary = {
        "yStar": report.yStar,
        "widthAtYStar": report.widthAtYStar,
        "fStar": report.fStar,
        "isInterval": bool(report.isInterval),
        "lower": report.lowerBound,
        "upperSharp": report.upperBoundSharp,
        "checks": [],
    }
    return summary, (levels, widths, functional)


def eig1d(kind, params, interval, n):
    """The ground eigenpair of one potential."""
    grid = sample(PotentialSpec(kind=kind, params=params, interval=interval), n)
    pair = smallest_eigenpair(grid)
    summary = {
        "lambda1": pair.lambda1,
        "n": grid.n,
        "dx": grid.dx,
        "residual": pair.residual,
        "checks": [],
    }
    return summary, (grid.nodes()[1:-1], pair.f)


def constant_triple(alpha, beta, gamma, budget, seed):
    """The given triple's objective when budget is 0, else the best triple
    a seeded search finds within budget evaluations; the summary sets it
    against the exact optimum, the best any triple reaches."""
    if budget > 0:
        triple, value = search(budget, seed)
        summary = {"mode": "search", "objective": value, "feasible": 1, "budget": budget}
    else:
        triple = ConstantTriple(alpha=alpha, beta=beta, gamma=gamma)
        feasible = is_feasible(triple)
        value = objective(triple) if feasible else None
        summary = {"mode": "evaluate", "objective": value, "feasible": int(feasible)}
    exact = exact_optimum()
    summary.update(
        alpha=triple.alpha,
        beta=triple.beta,
        gamma=triple.gamma,
        exactObjective=exact,
        exactGap=None if value is None else (exact - value) / exact,
        checks=[_check("feasible", summary["feasible"], 1, None)],
    )
    row = [triple.alpha, triple.beta, triple.gamma, float("nan") if value is None else value]
    return summary, [[cell] for cell in row]


def _sandwich(name: str, lambda1: float, report: SublevelReport) -> Tuple[float, dict]:
    """pi^2 fStar, and the check that lambda1 lies between lower and pi^2 fStar,
    each widened by the factor 1 + SANDWICH_SLACK."""
    upper = _PI2 * report.fStar
    lo = report.lowerBound / (1.0 + SANDWICH_SLACK)
    return upper, _check(name, lambda1, lo, upper * (1.0 + SANDWICH_SLACK))


def _chain(name: str, grid: PotentialGrid, f: np.ndarray, sides: dict) -> dict:
    """The check that each comparison of verify_chain's sides holds within the
    allowance for ground state f: its value is the worst margin, its upper
    bound the allowance."""
    vrange = float(grid.values.max() - grid.values.min())
    fmax = float(np.max(np.abs(f)))
    slack = CHAIN_SLACK_FACTOR * grid.dx * vrange * fmax * fmax
    margin = max(
        sides["hlRight"] - sides["hlLeft"],
        sides["psLeft"] - sides["psRight"],
        sides["lambdaRearranged"] - sides["lambdaOriginal"],
    )
    return _check(name, margin, None, slack)


def _channel(poly: ConvexPolygon, resolution: int = 256):
    """The thin-channel reduction of poly, profiled at normalize_gj's resolution
    (and its default): the normalized polygon, its height function, the
    localization scale L, the transverse-mode potential and its 1D ground pair."""
    poly_n, hf = normalize_gj(poly, resolution=resolution)
    scale_l = localization_scale(hf)
    grid = gj_potential(hf)
    return poly_n, hf, scale_l, grid, smallest_eigenpair(grid)


def _gj_profile_error(
    pair: Eigenpair2D, hf: HeightFunction, profile: Eigenpair1D, scale_l: float
) -> float:
    """Sup distance between the 2D ground state and its 1D-profile surrogate.

    Both fields are max-normalized; the surrogate is profile(x) times the
    transverse sine mode pinned to the local boundary graphs.  The sup runs
    over active cells whose x lies in the middle half of the longest run
    where h stays above the threshold of the localization scale scale_l.
    """
    if profile.f.size != hf.h.size - 2:
        raise ParameterError("1D profile grid does not match the height function grid")
    start, stop = longest_run(hf.h >= 1.0 - 1.0 / (scale_l * scale_l))
    if stop == start:
        raise ParameterError("height function never reaches the localization level")
    nodes = hf.nodes()
    x_lo = nodes[start]
    x_hi = nodes[stop - 1]
    center = 0.5 * (x_lo + x_hi)
    quarter = 0.25 * (x_hi - x_lo)
    xa, ya = pair.grid.points()
    sel = (xa >= center - quarter) & (xa <= center + quarter)
    if not sel.any():
        raise ParameterError("no active cells fall in the concentric half-window")
    xq = xa[sel]
    yq = ya[sel]
    u1 = pair.u[sel] / float(np.max(np.abs(pair.u)))
    phi_nodes = np.concatenate(([0.0], profile.f / float(np.max(np.abs(profile.f))), [0.0]))
    phi = np.interp(xq, nodes, phi_nodes)
    f1v = np.interp(xq, nodes, hf.f1)
    hv = np.maximum(np.interp(xq, nodes, hf.h), 1e-12)
    alpha = math.pi * (yq - f1v) / hv
    return float(np.max(np.abs(u1 - phi * np.sin(alpha))))


def verify_thm1(names):
    """Sandwich lambda1 between the sublevel bounds, for each named THM1 member.

    Also checks the sup-norm comparison, which holds for nonnegative
    potentials only; its 2 dx term covers grid maxima against the true sup.
    Its checks are `<potential>.sandwich` and `<potential>.linf`.
    """
    rows, checks = [], []
    for name in names:
        grid = sample(*THM1[name])
        report = minimize_functional(grid)
        pair = smallest_eigenpair(grid)
        upper, sandwich = _sandwich(f"{name}.sandwich", pair.lambda1, report)
        ratio = float(np.max(np.abs(pair.f)))
        bound = (2.0 * pair.lambda1) ** 0.25
        linf = _check(f"{name}.linf", ratio, None, bound * (1.0 + (LINF_SLACK + 2.0 * grid.dx)))
        checks += [sandwich, linf]
        rows.append(
            {
                "potential": name,
                "fStar": report.fStar,
                "lambda1": pair.lambda1,
                "lower": report.lowerBound,
                "upper": upper,
                "linfRatio": ratio,
                "linfBound": bound,
                "pass": sandwich["pass"] and linf["pass"],
            }
        )
    return {"rows": rows, "checks": checks}, None


def rearrange_random_suite(count, knots, vmax, interval, n, seed):
    """Rearrangement chain over seeded random piecewise-linear potentials.

    Each draw places `knots` values uniformly in [0, vmax] at evenly
    spaced abscissae; its check `draw<i>.chain` demands Hardy-Littlewood,
    Polya-Szego, and the eigenvalue drop, all within the grid allowance
    `slack`. `failures` counts the draws that fail it.
    """
    rng = np.random.default_rng(seed)
    rows, checks = [], []
    for i in range(count):
        ys = rng.uniform(0.0, vmax, size=knots)
        grid = sample(PotentialSpec("samples", ys.tolist(), interval), n)
        pair = smallest_eigenpair(grid)
        chain = verify_chain(grid, pair)
        c = _chain(f"draw{i}.chain", grid, pair.f, chain)
        checks.append(c)
        rows.append({"seedIndex": i, **chain, "slack": c["bound"][1], "pass": c["pass"]})
    failures = sum(1 - c["pass"] for c in checks)
    return {"count": len(rows), "failures": failures, "rows": rows, "checks": checks}, None


def domain_sweep(families, D, resolution):
    """Geometry and thin-channel 1D quantities for each generated domain.

    Rows follow families, then sizes, in the order given. The checks are
    the two-sided eigenvalue sandwich `<family><D>.sandwich` plus a bounded
    product `<family><D>.shiftedProduct` between the energy above the
    channel threshold and the localization scale.
    """
    rows, checks = [], []
    for family in families:
        for d in D:
            poly = generate_family(family, d)
            rho = inradius(poly)
            dm = diameter(poly)
            w, _ = minimal_width(poly)
            _, _, scale_l, grid, pair = _channel(poly, resolution)
            report = minimize_functional(grid)
            upper, sandwich = _sandwich(f"{family}{d:.17g}.sandwich", pair.lambda1, report)
            shifted = (pair.lambda1 - _PI2) * scale_l * scale_l
            width_ratio = width(grid, grid.values.min() + 1.0 / (scale_l * scale_l)) / scale_l
            product = _check(f"{family}{d:.17g}.shiftedProduct", shifted, *PRODUCT_BAND)
            checks += [sandwich, product]
            rows.append(
                {
                    "family": family,
                    "D": d,
                    "inradius": rho,
                    "diameter": dm,
                    "minWidth": w,
                    "L": scale_l,
                    "lambda1": pair.lambda1,
                    "lower": report.lowerBound,
                    "upper": upper,
                    "widthRatio": width_ratio,
                    "shiftedProduct": shifted,
                    "pass": sandwich["pass"] and product["pass"],
                }
            )
    return {"rows": rows, "checks": checks}, None


def vdberg_sweep(d_list: Sequence[float], spacing: float, tol: float) -> List[Dict[str, object]]:
    """Cone-family 2D sweep: ground state, sup-norm statistic, and the
    matching thin-channel one-dimensional quantities, one row per D in order."""
    return [_vdberg_row(d, spacing, tol) for d in d_list]


def _vdberg_row(d: float, spacing: float, tol: float) -> Dict[str, object]:
    """vdberg_sweep's row for the cone of size d; its solves' arrays go on return."""
    poly = generate_family("cone", d)
    rho = inradius(poly)
    dm = diameter(poly)
    w, _ = minimal_width(poly)
    pair = smallest_eigenpair_2d(rasterize(poly, spacing), tol=tol)
    sup_ratio = float(np.max(np.abs(pair.u)))
    poly_n, hf, scale_l, _, profile = _channel(poly)
    pair_n = smallest_eigenpair_2d(rasterize(poly_n, spacing), tol=tol)
    lam_norm = pair.lambda1 * w * w
    return {
        "D": d,
        "rho": rho,
        "lambda1": pair.lambda1,
        "supRatio": sup_ratio,
        "statistic": sup_ratio * rho * (dm / rho) ** (1.0 / 6.0),
        "L": scale_l,
        "gjError": _gj_profile_error(pair_n, hf, profile, scale_l),
        "diameter": dm,
        "minWidth": w,
        "lambdaNormalized": lam_norm,
        "lambdaGJ": profile.lambda1,
        "shiftedProduct": (lam_norm - _PI2) * scale_l * scale_l,
        "oneDimRatio": lam_norm / profile.lambda1,
    }


def vdberg_verdict(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The slope and checks of a vdberg sweep.

    Every cone must have inradius 1, and its shifted product and 1D energy
    ratio in band (`D<D>.rho`, `.shiftedProduct`, `.oneDimRatio`). The
    statistic, sup|u| over the bound rho^-1 (rho/D)^(1/6) at unit L2 norm,
    may vary across sizes by a factor STAT_SPREAD_MAX at most (`statSpread`).
    With two or more sizes the sup ratio must decay at least like D^SLOPE_MAX
    (`slope`); with one size there is no slope, and it is reported as None.
    """
    bands = {
        "rho": (1 - RHO_TOL, 1 + RHO_TOL), "shiftedProduct": PRODUCT_BAND, "oneDimRatio": RATIO_BAND
    }
    checks = [_check(f"D{r['D']:.17g}.{k}", r[k], *band) for r in rows for k, band in bands.items()]
    stats = [r["statistic"] for r in rows]
    checks.append(_check("statSpread", max(stats) / min(stats), None, STAT_SPREAD_MAX))
    slope = None
    if len(rows) >= 2:
        log_d = np.log([r["D"] for r in rows])
        slope = float(np.polyfit(log_d, np.log([r["supRatio"] for r in rows]), 1)[0])
        checks.append(_check("slope", slope, None, SLOPE_MAX))
    return {"slope": slope, "checks": checks}


def vdberg(D, spacing, tol):
    """vdberg_sweep over the sizes D, judged by vdberg_verdict."""
    rows = vdberg_sweep(D, spacing, tol)
    return dict(vdberg_verdict(rows), rows=rows), None


def gj_compare_run(D, spacing, tol):
    """Two kinds of check on the thin-channel reduction.

    First, on an 8x1 rectangle the 2D ground state must match the
    separable sine profile to within RECT_ERROR_BUDGET (`rectError`).
    Second, for each cone domain the excess energy above the channel
    threshold must track the cone model potential's ground energy within
    GJ_RATIO_BAND (`D<D>.ratio`). The CSV has one row per check.
    """
    rect = ConvexPolygon(vertices=np.array([[0.0, 0.0], [8.0, 0.0], [8.0, 1.0], [0.0, 1.0]]))
    rect_n, rect_hf, rect_l, _, rect_profile = _channel(rect)
    rect_pair = smallest_eigenpair_2d(rasterize(rect_n, spacing), tol=tol)
    rect_error = _gj_profile_error(rect_pair, rect_hf, rect_profile, rect_l)

    rows, checks = [], [_check("rectError", rect_error, None, RECT_ERROR_BUDGET)]
    for d in D:
        poly = generate_family("cone", d)
        t, _ = minimal_width(poly)
        _, hf = normalize_gj(poly)
        lam_gj = smallest_eigenpair(gj_potential(hf)).lambda1
        lam_model = smallest_eigenpair(sample(*_cone_model(d))).lambda1
        ratio = ((lam_gj - _PI2) / (t * t)) / lam_model
        checks.append(_check(f"D{d:.17g}.ratio", ratio, *GJ_RATIO_BAND))
        rows.append({"D": d, "lambdaGJ": lam_gj, "lambdaModel": lam_model, "ratio": ratio})
    csv = [
        ["rectProfile"] + ["coneRatio"] * len(rows),
        [8.0] + [r["D"] for r in rows],
        [rect_error] + [r["ratio"] for r in rows],
        [c["pass"] for c in checks],
    ]
    return {"rectError": rect_error, "rows": rows, "checks": checks}, csv
