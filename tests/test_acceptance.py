"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
"criterion N: PASS/FAIL (...)" line with the measured quantities.
Expensive sweeps are shared between criteria through module fixtures;
their wall time is charged to the first criterion that uses them.
"""

import math
import time

import numpy as np
import pytest

from specgap import pipeline
from specgap.constants import ConstantTriple, objective
from specgap.eigensolve1d import smallest_eigenpair
from specgap.potential import PotentialSpec, sample
from test_eigensolve1d import shortest_mass_interval
from test_potential import cone_model

PI2 = math.pi**2

CONE_D_1D = [16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]
CONE_D_2D = [8.0, 16.0, 32.0, 64.0]

# DLMF 9.9: Ai at a_1' = -1.018792971647471, the first zero of Ai', and
# |Ai'| at a_1 = -2.338107410459767, the first zero of Ai
AIRY_AT_A1_PRIME = 0.5356566560156998
AIRY_PRIME_AT_A1 = 0.7012108227206915
# Beyond the disk the cone's channel potential is about pi^2/4 + (pi^2/(2D)) x,
# so at the localization scale D^(1/3) the ground state tends to the Airy
# profile Ai(k^(1/3) x + a_1), k = pi^2/(2D), with int_{a_1}^inf Ai^2 = Ai'(a_1)^2;
# its sup-norm statistic then tends to this constant as D -> infinity
STATISTIC_LIMIT = (PI2 / 2.0) ** (1.0 / 6.0) * AIRY_AT_A1_PRIME / AIRY_PRIME_AT_A1
# the gap to the limit shrinks like D^(-2/3): by 2^(-2/3) per doubling of D
GAP_RATIO = 2.0 ** (-2.0 / 3.0)
GAP_RATIO_BAND = (GAP_RATIO - 0.08, GAP_RATIO + 0.08)


def cone_scaling_run(d_list):
    """Ground energies of the cone model family and their decay rate.

    Each row pairs lambda1 with the half-mass width of the ground state,
    whose product should stay within a fixed band while lambda1 itself
    falls like D^(-2/3).
    """
    rows = []
    for d in sorted(float(v) for v in d_list):
        grid = cone_model(d, int(round(pipeline.CONE_BENCH_N_FACTOR * d)))
        pair = smallest_eigenpair(grid)
        half_width, _ = shortest_mass_interval(pair.f, grid.dx, 0.5)
        rows.append(
            {
                "D": d,
                "lambda1": pair.lambda1,
                "halfMassWidth": half_width,
                "product": half_width * math.sqrt(pair.lambda1),
            }
        )
    log_d = np.log([r["D"] for r in rows])
    slope = float(np.polyfit(log_d, np.log([r["lambda1"] for r in rows]), 1)[0])
    return {"rows": rows, "slope": slope}


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def thm1_result():
    t0 = time.perf_counter()
    summary = pipeline.verify_thm1(pipeline.thm1_suite())
    return summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cone_scaling_result():
    t0 = time.perf_counter()
    result = cone_scaling_run(CONE_D_1D)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def vdberg_result():
    t0 = time.perf_counter()
    rows = pipeline.vdberg_sweep(CONE_D_2D, spacing=1.0 / 64.0, tol=1e-6)
    return rows, time.perf_counter() - t0


def test_criterion_01_square_well_matches_discrete_closed_form():
    t0 = time.perf_counter()
    grid = sample(PotentialSpec("squareWell", (), (0.0, 1.0)), 1000)
    pair = smallest_eigenpair(grid)
    elapsed = time.perf_counter() - t0
    dx = grid.dx
    closed = (2.0 / (dx * dx)) * (1.0 - math.cos(math.pi * dx))
    rel_closed = abs(pair.lambda1 - closed) / closed
    rel_pi2 = abs(pair.lambda1 - PI2) / PI2
    ok = rel_closed <= 1e-10 and rel_pi2 < 1e-5 and elapsed < 1.0
    report(
        1,
        ok,
        f"lambda1={pair.lambda1:.12f}, rel. to closed form {rel_closed:.2e} <= 1e-10, "
        f"rel. to pi^2 {rel_pi2:.2e} < 1e-5, {elapsed:.2f}s < 1s",
    )


def test_criterion_02_harmonic_ground_energy():
    t0 = time.perf_counter()
    grid = sample(PotentialSpec("harmonic", (0.0,), (-12.0, 12.0)), 4000)
    pair = smallest_eigenpair(grid)
    elapsed = time.perf_counter() - t0
    err = abs(pair.lambda1 - 1.0)
    ok = err <= 1e-4 and elapsed < 2.0
    report(2, ok, f"lambda1={pair.lambda1:.9f}, |lambda1-1|={err:.2e} <= 1e-4, {elapsed:.2f}s < 2s")


def test_criterion_03_two_sided_sandwich_suite(thm1_result):
    summary, elapsed = thm1_result
    rows = summary["rows"]
    worst_low = min(r["lambda1"] / r["lower"] for r in rows)
    worst_high = max(r["lambda1"] / r["upper"] for r in rows)
    sandwiches = [c for c in summary["checks"] if c["name"].endswith(".sandwich")]
    ok = (
        len(sandwiches) == len(rows)
        and all(c["pass"] for c in sandwiches)
        and worst_low >= 1.0 / 1.01
        and worst_high <= 1.01
        and elapsed < 30.0
    )
    report(
        3,
        ok,
        f"{len(rows)} potentials, min lambda1/lower={worst_low:.3f} >= 0.990, "
        f"max lambda1/upper={worst_high:.3f} <= 1.01, {elapsed:.1f}s < 30s",
    )


def test_criterion_04_constant_triple_objective():
    triple = ConstantTriple(alpha=99.0 / 100.0, beta=7.0 / 1000.0, gamma=14.1327)
    t0 = time.perf_counter()
    value = objective(triple)
    elapsed = time.perf_counter() - t0
    ok = abs(value - 0.0040782) <= 1e-6 and value >= 1.0 / 250.0 and elapsed < 1e-3
    report(
        4,
        ok,
        f"objective={value:.10f}, |value-0.0040782|={abs(value - 0.0040782):.2e} <= 1e-6, "
        f"value >= 1/250, {elapsed * 1e6:.0f}us < 1ms",
    )


def test_criterion_05_cone_model_energy_decay_rate(cone_scaling_result):
    result, elapsed = cone_scaling_result
    slope = result["slope"]
    ok = abs(slope - (-2.0 / 3.0)) <= 0.05 and elapsed < 120.0
    report(
        5,
        ok,
        f"log-log slope={slope:.6f} within -2/3 +/- 0.05 over D={CONE_D_1D}, "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_06_supnorm_fourth_root_bound(thm1_result):
    rows = thm1_result[0]["rows"]
    worst = max(r["linfRatio"] / r["linfBound"] for r in rows)
    ok = worst <= 1.01
    report(
        6,
        ok,
        f"max ratio/(2*lambda1)^(1/4) = {worst:.4f} <= 1.01 over {len(rows)} potentials",
    )


def test_criterion_07_rearrangement_chain_random_suite():
    t0 = time.perf_counter()
    summary, _ = pipeline.rearrange_random_suite(
        count=200, knots=8, vmax=50.0, interval=(0.0, 1.0), n=800, seed=0
    )
    elapsed = time.perf_counter() - t0
    rows = summary["rows"]
    failures = sum(1 for r in rows if not r["pass"])
    worst = max(
        max(
            r["hlRight"] - r["hlLeft"],
            r["psLeft"] - r["psRight"],
            r["lambdaRearranged"] - r["lambdaOriginal"],
        )
        - r["slack"]
        for r in rows
    )
    suite_ok = all(c["pass"] for c in summary["checks"])
    ok = suite_ok and failures == summary["failures"] == 0 and elapsed < 120.0
    report(
        7,
        ok,
        f"200 seeded potentials, failures={failures}, worst margin={worst:.3e} <= 0, "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_08_half_mass_balancing_band(cone_scaling_result):
    result, _ = cone_scaling_result
    products = [r["product"] for r in result["rows"]]
    c = products[0] / 2.0
    ok = all(c <= p <= 4.0 * c for p in products)
    report(
        8,
        ok,
        f"half-mass width * sqrt(lambda1) in [{min(products):.4f}, {max(products):.4f}], "
        f"band [c, 4c] = [{c:.4f}, {4 * c:.4f}]",
    )


def test_criterion_09_cone_domain_supnorm_scaling(vdberg_result):
    rows, elapsed = vdberg_result
    rho_off = max(abs(r["rho"] - 1.0) for r in rows)
    slope = float(
        np.polyfit(np.log([r["D"] for r in rows]), np.log([r["supRatio"] for r in rows]), 1)[0]
    )
    stats = [r["statistic"] for r in rows]
    spread = max(stats) / min(stats)
    ok = (
        rho_off <= 1e-3
        and slope <= -1.0 / 6.0 + 0.05
        and spread <= 2.0
        and elapsed < 900.0
    )
    report(
        9,
        ok,
        f"D={CONE_D_2D}, max|rho-1|={rho_off:.1e} <= 1e-3, supRatio slope={slope:.4f} "
        f"<= {-1.0 / 6.0 + 0.05:.4f}, statistic max/min={spread:.3f} <= 2, {elapsed:.0f}s < 900s",
    )


def test_cone_statistic_is_sup_ratio_times_scales(vdberg_result):
    rows, _ = vdberg_result
    for r in rows:
        rho = r["rho"]
        assert r["statistic"] == r["supRatio"] * rho * (r["diameter"] / rho) ** (1.0 / 6.0)


def test_cone_statistic_tends_to_the_airy_limit(vdberg_result):
    rows, _ = vdberg_result
    stats = [r["statistic"] for r in rows]
    assert [r["D"] for r in rows] == CONE_D_2D
    assert all(b < a for a, b in zip(stats, stats[1:]))
    gaps = [s - STATISTIC_LIMIT for s in stats]
    for a, b in zip(gaps, gaps[1:]):
        assert GAP_RATIO_BAND[0] <= b / a <= GAP_RATIO_BAND[1]
    # Richardson extrapolation of the two largest sizes, one doubling apart
    limit = (stats[-1] - GAP_RATIO * stats[-2]) / (1.0 - GAP_RATIO)
    assert limit == pytest.approx(STATISTIC_LIMIT, rel=1e-2)


def test_criterion_10_channel_energy_consistency(vdberg_result):
    rows, _ = vdberg_result
    products = [r["shiftedProduct"] for r in rows]
    ratios = [r["oneDimRatio"] for r in rows]
    ok = all(1.0 / 20.0 <= p <= 20.0 for p in products) and all(
        0.5 <= q <= 2.0 for q in ratios
    )
    report(
        10,
        ok,
        f"(lambda1*w^2 - pi^2)*L^2 in [{min(products):.2f}, {max(products):.2f}] within [1/20, 20]; "
        f"2D/1D energy ratio in [{min(ratios):.4f}, {max(ratios):.4f}] within [1/2, 2]",
    )


def test_criterion_11_rectangle_profile_agreement():
    t0 = time.perf_counter()
    # one cone size, as an empty suite is bad input; its rows are 1D solves only
    result, _ = pipeline.gj_compare_run(D=[16.0], spacing=1.0 / 64.0, tol=1e-7)
    elapsed = time.perf_counter() - t0
    err = result["rectError"]
    ok = err <= 1e-2 and elapsed < 60.0
    report(
        11,
        ok,
        f"8x1 rectangle profile error={err:.2e} <= 1e-2 at spacing 1/64, {elapsed:.1f}s < 60s",
    )


def test_cone_scaling_rows_structure():
    result = cone_scaling_run([16.0, 64.0])
    rows = result["rows"]
    assert [r["D"] for r in rows] == [16.0, 64.0]
    assert rows[0]["lambda1"] > rows[1]["lambda1"] > 0
    for r in rows:
        assert r["halfMassWidth"] > 0
        assert r["product"] == pytest.approx(
            r["halfMassWidth"] * math.sqrt(r["lambda1"]), rel=1e-12
        )
    fit = np.polyfit(np.log([16.0, 64.0]), np.log([r["lambda1"] for r in rows]), 1)
    assert result["slope"] == pytest.approx(float(fit[0]), rel=1e-12)
