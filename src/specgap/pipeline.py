"""Shared run plumbing: benchmark suites, sweep loops, and check rows.

Every function here returns plain dicts and lists so the CLI can dump
them to JSON/CSV unchanged and the acceptance tests can inspect the
same numbers the command line reports.
"""

import math
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .convexdomain import (
    ConvexPolygon,
    diameter,
    generate_family,
    gj_potential,
    inradius,
    localization_scale,
    minimal_width,
    normalize_gj,
)
from .eigensolve1d import smallest_eigenpair
from .eigensolve2d import (
    gj_profile_error,
    rasterize,
    smallest_eigenpair_2d,
    vdberg_statistic,
)
from .errors import ParameterError
from .potential import PotentialGrid, PotentialSpec, cone_model_potential, min_value, sample
from .rearrange import RearrangementReport, verify_chain
from .sublevel import SublevelReport, minimize_functional, width

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


def _bench_specs() -> List[Tuple[str, PotentialSpec, int]]:
    rows: List[Tuple[str, PotentialSpec, int]] = [
        ("squareWell", PotentialSpec("squareWell", (), (0.0, 1.0)), 1000),
        ("linearWell", PotentialSpec("linearWell", (1.0, 0.0), (-12.0, 12.0)), 4000),
        ("harmonic", PotentialSpec("harmonic", (0.0,), (-12.0, 12.0)), 4000),
        ("quartic", PotentialSpec("quartic", (0.0,), (-12.0, 12.0)), 4000),
    ]
    for d in (16, 64, 256):
        spec = PotentialSpec("coneModel", (float(d),), (0.0, float(d)))
        rows.append((f"coneModel{d}", spec, CONE_BENCH_N_FACTOR * d))
    return rows


THM1_NAMES = tuple(name for name, _, _ in _bench_specs())


def thm1_suite(names: Optional[Sequence[str]] = None) -> List[Tuple[str, PotentialGrid]]:
    """Named nonnegative benchmark potentials for the two-sided check."""
    table = {name: (spec, n) for name, spec, n in _bench_specs()}
    picked = THM1_NAMES if names is None else list(names)
    if not picked:
        raise ParameterError("verifyThm1 needs at least one suite member name")
    unknown = [name for name in picked if name not in table]
    if unknown:
        raise ParameterError(f"unknown suite members {unknown}; have {sorted(table)}")
    return [(name, sample(*table[name])) for name in picked]


def _sandwich(lambda1: float, report: SublevelReport) -> Tuple[float, bool]:
    """pi^2 fStar, and whether lambda1 lies between lower and pi^2 fStar,
    each widened by the factor 1 + SANDWICH_SLACK."""
    upper = _PI2 * report.fStar
    ok = report.lowerBound / (1.0 + SANDWICH_SLACK) <= lambda1 <= upper * (1.0 + SANDWICH_SLACK)
    return upper, ok


def _chain(grid: PotentialGrid, f: np.ndarray, report: RearrangementReport) -> Tuple[float, bool]:
    """The allowance for ground state f, and whether each comparison holds within it."""
    vrange = float(grid.values.max() - grid.values.min())
    fmax = float(np.max(np.abs(f)))
    slack = CHAIN_SLACK_FACTOR * grid.dx * vrange * fmax * fmax
    return slack, (
        report.hlRight <= report.hlLeft + slack
        and report.psLeft <= report.psRight + slack
        and report.lambdaRearranged <= report.lambdaOriginal + slack
    )


def verify_thm1(suite: Sequence[Tuple[str, PotentialGrid]]) -> List[Dict[str, object]]:
    """Sandwich lambda1 between the sublevel bounds, potential by potential.

    Also records the sup-norm comparison, which holds for nonnegative
    potentials only; its 2 dx term covers grid maxima against the true sup.
    """
    rows: List[Dict[str, object]] = []
    for name, grid in suite:
        if min_value(grid) < 0:
            raise ParameterError(f"{name}: sup-norm bound assumes a nonnegative potential")
        report = minimize_functional(grid)
        pair = smallest_eigenpair(grid)
        upper, sandwich_ok = _sandwich(pair.lambda1, report)
        ratio = float(np.max(np.abs(pair.f))) / math.sqrt(pair.normL2)
        bound = (2.0 * pair.lambda1) ** 0.25
        linf_ok = ratio <= bound * (1.0 + (LINF_SLACK + 2.0 * grid.dx))
        rows.append(
            {
                "potential": name,
                "fStar": report.fStar,
                "lambda1": pair.lambda1,
                "lower": report.lowerBound,
                "upper": upper,
                "sandwichPass": int(sandwich_ok),
                "linfRatio": ratio,
                "linfBound": bound,
                "linfPass": int(linf_ok),
                "pass": int(sandwich_ok and linf_ok),
            }
        )
    return rows


def rearrange_random_suite(
    count: int,
    seed: int,
    knots: int = 8,
    vmax: float = 50.0,
    interval: Tuple[float, float] = (0.0, 1.0),
    n: int = 800,
) -> List[Dict[str, object]]:
    """Rearrangement chain over seeded random piecewise-linear potentials.

    Each draw places `knots` values uniformly in [0, vmax] at evenly
    spaced abscissae; the pass flag demands Hardy-Littlewood,
    Polya-Szego, and the eigenvalue drop, all within the grid allowance `slack`.
    """
    if count < 1:
        raise ParameterError(f"count must be at least 1, got {count}")
    if knots < 2:
        raise ParameterError(f"need at least 2 knots, got {knots}")
    if not 0 < vmax < math.inf:
        raise ParameterError(f"vmax must be positive and finite, got {vmax}")
    rng = np.random.default_rng(seed)
    a, b = float(interval[0]), float(interval[1])
    xs = np.linspace(a, b, knots)
    rows: List[Dict[str, object]] = []
    for index in range(count):
        ys = rng.uniform(0.0, vmax, size=knots)
        params = np.column_stack([xs, ys]).ravel().tolist()
        grid = sample(PotentialSpec("piecewiseLinear", params, (a, b)), n)
        pair = smallest_eigenpair(grid)
        report = verify_chain(grid, pair)
        slack, ok = _chain(grid, pair.f, report)
        rows.append({"seedIndex": index, **asdict(report), "slack": slack, "pass": int(ok)})
    return rows


def domain_sweep(
    families: Sequence[str], d_list: Sequence[float], resolution: int = 256
) -> List[Dict[str, object]]:
    """Geometry and thin-channel 1D quantities for each generated domain.

    Rows are sorted by family then size. The pass flag requires the
    two-sided eigenvalue sandwich plus a bounded product between the
    energy above the channel threshold and the localization scale.
    """
    kinds = sorted(set(str(f) for f in families))
    sizes = sorted(set(float(v) for v in d_list))
    if not (kinds and sizes):
        raise ParameterError("domainSweep needs at least one family and one domain size D")
    rows: List[Dict[str, object]] = []
    for family in kinds:
        for d in sizes:
            poly = generate_family(family, d)
            rho = inradius(poly)
            dm = diameter(poly)
            w, _ = minimal_width(poly)
            _, hf = normalize_gj(poly, resolution=resolution)
            scale_l = localization_scale(hf)
            grid = gj_potential(hf)
            report = minimize_functional(grid)
            pair = smallest_eigenpair(grid)
            upper, sandwich_ok = _sandwich(pair.lambda1, report)
            shifted = (pair.lambda1 - _PI2) * scale_l * scale_l
            width_ratio = width(grid, min_value(grid) + 1.0 / (scale_l * scale_l)) / scale_l
            ok = sandwich_ok and PRODUCT_BAND[0] <= shifted <= PRODUCT_BAND[1]
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
                    "pass": int(ok),
                }
            )
    return rows


def _vdberg_member(d: float, spacing: float, tol: float) -> Dict[str, object]:
    poly = generate_family("cone", d)
    rho = inradius(poly)
    dm = diameter(poly)
    w, _ = minimal_width(poly)

    pair = smallest_eigenpair_2d(rasterize(poly, spacing), tol=tol)
    sup_ratio = float(np.max(np.abs(pair.u)))
    statistic = vdberg_statistic(pair, rho, dm)

    poly_n, hf = normalize_gj(poly)
    scale_l = localization_scale(hf)
    profile = smallest_eigenpair(gj_potential(hf))
    pair_n = smallest_eigenpair_2d(rasterize(poly_n, spacing), tol=tol)
    gj_error = gj_profile_error(pair_n, hf, profile)

    lam_norm = pair.lambda1 * w * w
    return {
        "D": d,
        "rho": rho,
        "lambda1": pair.lambda1,
        "supRatio": sup_ratio,
        "statistic": statistic,
        "L": scale_l,
        "gjError": gj_error,
        "diameter": dm,
        "minWidth": w,
        "lambdaNormalized": lam_norm,
        "lambdaGJ": profile.lambda1,
        "shiftedProduct": (lam_norm - _PI2) * scale_l * scale_l,
        "oneDimRatio": lam_norm / profile.lambda1,
    }


def vdberg_sweep(
    d_list: Sequence[float], spacing: float = 1.0 / 64.0, tol: float = 1e-6
) -> List[Dict[str, object]]:
    """Cone-family 2D sweep: ground state, sup-norm statistic, and the
    matching thin-channel one-dimensional quantities, sorted by D."""
    sizes = sorted(set(d_list))
    if not sizes:
        raise ParameterError("vdberg needs at least one domain size D")
    return [_vdberg_member(float(d), float(spacing), float(tol)) for d in sizes]


def vdberg_verdict(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Verdict on a vdberg sweep.

    Every cone must have inradius 1 and its shifted product and 1D energy
    ratio in band. The statistic, sup|u| over the bound rho^-1 (rho/D)^(1/6)
    at unit L2 norm, may vary across sizes by a factor STAT_SPREAD_MAX at
    most. With two or more sizes the sup ratio must decay at least like
    D^SLOPE_MAX; with one size there is no slope, and it is reported as None.
    """
    slope = None
    if len(rows) >= 2:
        log_d = np.log([r["D"] for r in rows])
        slope = float(np.polyfit(log_d, np.log([r["supRatio"] for r in rows]), 1)[0])
    stats = [r["statistic"] for r in rows]
    spread = max(stats) / min(stats)
    ok = (
        all(abs(r["rho"] - 1.0) <= RHO_TOL for r in rows)
        and all(PRODUCT_BAND[0] <= r["shiftedProduct"] <= PRODUCT_BAND[1] for r in rows)
        and all(RATIO_BAND[0] <= r["oneDimRatio"] <= RATIO_BAND[1] for r in rows)
        and spread <= STAT_SPREAD_MAX
        and (slope is None or slope <= SLOPE_MAX)
    )
    return {"allPass": int(ok), "slope": slope, "statSpread": spread}


def gj_compare_run(
    d_list: Sequence[float], spacing: float = 1.0 / 64.0, tol: float = 1e-7
) -> Dict[str, object]:
    """Two checks on the thin-channel reduction.

    First, on an 8x1 rectangle the 2D ground state must match the
    separable sine profile to within RECT_ERROR_BUDGET, which the summary
    reports as rectBudget next to rectError.  Second, for
    cone domains the excess energy above the channel threshold must
    track the cone model potential's ground energy within GJ_RATIO_BAND.
    allPass requires both.
    """
    sizes = sorted(float(v) for v in d_list)
    if not sizes:
        raise ParameterError("gjCompare needs at least one domain size D")
    rect = ConvexPolygon(vertices=np.array([[0.0, 0.0], [8.0, 0.0], [8.0, 1.0], [0.0, 1.0]]))
    rect_n, rect_hf = normalize_gj(rect)
    rect_profile = smallest_eigenpair(gj_potential(rect_hf))
    rect_pair = smallest_eigenpair_2d(rasterize(rect_n, spacing), tol=tol)
    rect_error = gj_profile_error(rect_pair, rect_hf, rect_profile)

    rows = []
    for d in sizes:
        poly = generate_family("cone", d)
        t, _ = minimal_width(poly)
        _, hf = normalize_gj(poly)
        lam_gj = smallest_eigenpair(gj_potential(hf)).lambda1
        model = cone_model_potential(d, int(round(CONE_BENCH_N_FACTOR * d)))
        lam_model = smallest_eigenpair(model).lambda1
        ratio = ((lam_gj - _PI2) / (t * t)) / lam_model
        rows.append(
            {
                "D": d,
                "lambdaGJ": lam_gj,
                "lambdaModel": lam_model,
                "ratio": ratio,
                "pass": int(GJ_RATIO_BAND[0] <= ratio <= GJ_RATIO_BAND[1]),
            }
        )
    rect_ok = rect_error <= RECT_ERROR_BUDGET
    return {
        "rectError": rect_error,
        "rectBudget": RECT_ERROR_BUDGET,
        "rectPass": int(rect_ok),
        "rows": rows,
        "allPass": int(rect_ok and all(r["pass"] for r in rows)),
    }
