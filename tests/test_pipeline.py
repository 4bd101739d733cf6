"""Tests for the shared run plumbing behind the CLI commands."""

import math
import sys
import weakref

import pytest

from specgap import pipeline, rearrange, sublevel
from specgap.eigensolve1d import smallest_eigenpair
from specgap.potential import sample


PI2 = math.pi**2


def test_thm1_suite_names_and_sizes():
    assert list(pipeline.THM1) == [
        "squareWell",
        "linearWell",
        "harmonic",
        "quartic",
        "coneModel16",
        "coneModel64",
        "coneModel256",
    ]
    bench = {name: sample(*spec_n) for name, spec_n in pipeline.THM1.items()}
    for grid in bench.values():
        assert float(grid.values.min()) >= 0.0
    assert bench["squareWell"].n == 1000
    assert bench["harmonic"].n == 4000
    assert bench["coneModel64"].n == 8 * 64
    assert bench["coneModel64"].b == 64.0


# |a_1|, the first zero of Ai (DLMF 9.9)
AIRY_A1 = 2.338107410459767


def test_cone_model_tends_to_the_airy_limit():
    # at the localization scale the cone model is a linear well with a wall,
    # so lambda (D/2)^(2/3) -> |a_1|, and the gap shrinks like D^(-2/3)
    gaps = []
    for d in (16, 64, 256, 1024, 4096):
        pair = smallest_eigenpair(sample(*pipeline._cone_model(d)))
        gaps.append(pair.lambda1 * (d / 2.0) ** (2.0 / 3.0) - AIRY_A1)
    assert all(gap > 0 for gap in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    for a, b in zip(gaps, gaps[1:]):
        assert b / a == pytest.approx(4.0 ** (-2.0 / 3.0), abs=0.03)
    assert gaps[-1] < 0.015


def checks_by_name(summary):
    return {check["name"]: check for check in summary["checks"]}


def test_verify_thm1_squarewell_row():
    summary = pipeline.verify_thm1(["squareWell"])[0]
    rows = summary["rows"]
    assert len(rows) == 1
    row = rows[0]
    assert row["potential"] == "squareWell"
    assert row["fStar"] == pytest.approx(1.0, rel=1e-9)
    assert row["lower"] == pytest.approx(0.004, rel=1e-9)
    assert row["upper"] == pytest.approx(PI2, rel=1e-9)
    assert row["lambda1"] == pytest.approx(PI2, rel=1e-4)
    checks = checks_by_name(summary)
    assert checks["squareWell.sandwich"]["pass"] and checks["squareWell.linf"]["pass"]
    assert row["pass"] == 1
    assert checks["squareWell.sandwich"]["value"] == row["lambda1"]
    assert checks["squareWell.linf"]["value"] == row["linfRatio"]
    assert row["linfRatio"] <= row["linfBound"] * 1.02


def test_verify_thm1_linfty_square_well():
    summary = pipeline.verify_thm1(["squareWell"])[0]
    row = summary["rows"][0]
    assert row["linfRatio"] == pytest.approx(math.sqrt(2.0), abs=1e-3)
    assert row["linfBound"] == pytest.approx((2 * PI2) ** 0.25, rel=1e-6)
    assert checks_by_name(summary)["squareWell.linf"]["pass"] == 1


def test_verify_thm1_linfty_harmonic_gaussian_ratio():
    summary = pipeline.verify_thm1(["harmonic"])[0]
    row = summary["rows"][0]
    assert row["linfRatio"] == pytest.approx(math.pi ** (-0.25), abs=1e-3)
    assert row["linfBound"] == pytest.approx(2.0**0.25, rel=1e-4)
    assert checks_by_name(summary)["harmonic.linf"]["pass"] == 1


def test_verify_thm1_linfty_verdict_reads_its_band(monkeypatch):
    # a sup-norm band out of reach fails that check alone
    monkeypatch.setattr(pipeline, "LINF_SLACK", -0.5)
    summary = pipeline.verify_thm1(["squareWell"])[0]
    passes = [check["pass"] for check in summary["checks"]]
    assert (passes, summary["rows"][0]["pass"]) == ([1, 0], 0)
    assert [check["name"] for check in summary["checks"]] == [
        "squareWell.sandwich",
        "squareWell.linf",
    ]


def rearrange_suite(count, seed, n=800):
    """rearrange_random_suite at the rearrangeCheck defaults for knots, vmax and interval."""
    return pipeline.rearrange_random_suite(
        count=count, knots=8, vmax=50.0, interval=(0.0, 1.0), n=n, seed=seed
    )


def test_rearrange_verdict_reads_its_band(monkeypatch):
    monkeypatch.setattr(pipeline, "CHAIN_SLACK_FACTOR", -1e3)
    summary, csv_rows = rearrange_suite(count=2, seed=11, n=200)
    rows = summary["rows"]
    assert [r["pass"] for r in rows] == [0, 0]
    assert all(r["slack"] < 0 for r in rows)
    assert [c["name"] for c in summary["checks"] if not c["pass"]] == ["draw0.chain", "draw1.chain"]
    assert [c["bound"] for c in summary["checks"]] == [[None, r["slack"]] for r in rows]
    assert (summary["failures"], csv_rows) == (2, None)


def test_rearrange_suite_deterministic_and_passing():
    first, _ = rearrange_suite(count=3, seed=11)
    second, _ = rearrange_suite(count=3, seed=11)
    assert first == second
    assert first["count"] == 3 and first["failures"] == 0
    assert all(check["pass"] for check in first["checks"])
    assert len(first["rows"]) == 3
    for row in first["rows"]:
        assert row["pass"] == 1
        assert row["lambdaRearranged"] <= row["lambdaOriginal"] + row["slack"]
    other, _ = rearrange_suite(count=3, seed=12)
    assert other["rows"] != first["rows"]


def test_rearrange_suite_solves_each_draw_twice(monkeypatch):
    # one ground state for the drawn well, one eigenvalue for its rearrangement
    solve = rearrange.smallest_eigenpair
    calls = []

    def counting(grid, *args, **kwargs):
        calls.append(grid.n)
        return solve(grid, *args, **kwargs)

    monkeypatch.setattr(rearrange, "smallest_eigenpair", counting)
    monkeypatch.setattr(pipeline, "smallest_eigenpair", counting)
    rearrange_suite(count=3, seed=11, n=200)
    assert len(calls) == 6


def test_vdberg_sweep_small_member():
    rows = pipeline.vdberg_sweep([8.0], spacing=1.0 / 16.0, tol=1e-6)
    assert len(rows) == 1
    row = rows[0]
    assert row["D"] == 8.0
    assert row["rho"] == pytest.approx(1.0, abs=2e-3)
    assert 0 < row["lambda1"] < 2.0 * PI2
    assert row["supRatio"] > 0
    assert row["diameter"] == pytest.approx(8.0, rel=1e-12)
    assert row["statistic"] == pytest.approx(
        row["supRatio"] * row["rho"] * (row["diameter"] / row["rho"]) ** (1.0 / 6.0),
        rel=1e-12,
    )
    assert row["L"] > 1.0
    assert 0 <= row["gjError"] < 0.5
    assert row["lambdaNormalized"] == pytest.approx(
        row["lambda1"] * row["minWidth"] ** 2, rel=1e-12
    )
    assert 1.0 / 20.0 <= row["shiftedProduct"] <= 20.0
    assert 0.5 <= row["oneDimRatio"] <= 2.0


def test_each_height_function_finds_its_localization_scale_once(monkeypatch):
    # the profile error takes the scale its caller found, at every binding
    scale = pipeline.localization_scale
    calls = []

    def counting(hf):
        calls.append(hf.b)
        return scale(hf)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("specgap.") and hasattr(module, "localization_scale"):
            monkeypatch.setattr(module, "localization_scale", counting)
    pipeline.vdberg_sweep([8.0, 12.0], spacing=1.0 / 16.0, tol=1e-6)
    assert len(calls) == 2
    pipeline.gj_compare_run(D=[16.0], spacing=1.0 / 16.0, tol=1e-6)
    assert len(calls) == 3


def test_vdberg_sweep_frees_each_cone_before_the_next(monkeypatch):
    # each cone's two ground states are gone before the next cone's first
    # solve: live counts each pair returned so far that is still referenced
    solve = pipeline.smallest_eigenpair_2d
    pairs, live = [], []

    def tracked(*args, **kwargs):
        live.append(sum(ref() is not None for ref in pairs))
        pair = solve(*args, **kwargs)
        pairs.append(weakref.ref(pair))
        return pair

    monkeypatch.setattr(pipeline, "smallest_eigenpair_2d", tracked)
    pipeline.vdberg_sweep([8.0, 16.0], spacing=1.0 / 16.0, tol=1e-6)
    assert live == [0, 1, 0, 1]


def test_bound_scans_the_samples_once(monkeypatch):
    scan = sublevel._scan
    calls = []

    def counting(grid):
        calls.append(grid.n)
        return scan(grid)

    monkeypatch.setattr(sublevel, "_scan", counting)
    pipeline.bound("harmonic", (0.0,), (-12.0, 12.0), 4000)
    assert calls == [4000]


def _verdict_rows():
    # sup ratio ~ D^-1 decays faster than D^SLOPE_MAX; every band holds
    return [
        {"D": d, "rho": 1.0, "shiftedProduct": 1.0, "oneDimRatio": 1.0,
         "statistic": 1.0, "supRatio": 1.0 / d}
        for d in (8.0, 16.0)
    ]


def test_vdberg_verdict_passes_in_band():
    verdict = pipeline.vdberg_verdict(_verdict_rows())
    checks = checks_by_name(verdict)
    assert all(check["pass"] for check in verdict["checks"])
    assert verdict["slope"] == checks["slope"]["value"] == pytest.approx(-1.0, rel=1e-12)
    assert checks["statSpread"]["value"] == 1.0
    assert sorted(checks) == sorted(
        [f"D{d}.{key}" for d in (8, 16) for key in ("rho", "shiftedProduct", "oneDimRatio")]
        + ["statSpread", "slope"]
    )
    single = pipeline.vdberg_verdict(_verdict_rows()[:1])
    assert all(check["pass"] for check in single["checks"]) and single["slope"] is None
    assert "slope" not in checks_by_name(single)


@pytest.mark.parametrize(
    "key, value",
    [
        ("rho", 1.0 + 2.0 * pipeline.RHO_TOL),
        ("shiftedProduct", 2.0 * pipeline.PRODUCT_BAND[1]),
        ("oneDimRatio", 2.0 * pipeline.RATIO_BAND[1]),
        ("statistic", 2.0 * pipeline.STAT_SPREAD_MAX),  # spread across D
        ("supRatio", 1.0),  # flat against D=8's 1/8: slope > SLOPE_MAX
    ],
)
def test_vdberg_verdict_fails_on_one_bad_row(key, value):
    rows = _verdict_rows()
    rows[1][key] = value
    failed = [c["name"] for c in pipeline.vdberg_verdict(rows)["checks"] if not c["pass"]]
    named = {"statistic": "statSpread", "supRatio": "slope"}
    assert failed == [named.get(key, f"D16.{key}")]


def test_gj_compare_run_bands():
    result, csv_rows = pipeline.gj_compare_run(D=[16.0], spacing=1.0 / 32.0, tol=1e-7)
    assert 0 <= result["rectError"] <= 1e-2
    (row,) = result["rows"]
    assert row["D"] == 16.0
    assert 0.25 <= row["ratio"] <= 4.0
    assert result["checks"] == [
        {"name": "rectError", "value": result["rectError"], "bound": [None, 1e-2], "pass": 1},
        {"name": "D16.ratio", "value": row["ratio"], "bound": [0.25, 4.0], "pass": 1},
    ]
    assert csv_rows == [
        ["rectProfile", 8.0, result["rectError"], 1],
        ["coneRatio", 16.0, row["ratio"], 1],
    ]
