"""Tests for the shared run plumbing behind the CLI commands."""

import math

import pytest

from specgap import pipeline, rearrange
from specgap.errors import ParameterError
from specgap.potential import PotentialGrid, PotentialSpec, sample, shift


PI2 = math.pi**2


def test_thm1_suite_names_and_sizes():
    suite = pipeline.thm1_suite()
    names = [name for name, _ in suite]
    assert names == [
        "squareWell",
        "linearWell",
        "harmonic",
        "quartic",
        "coneModel16",
        "coneModel64",
        "coneModel256",
    ]
    for name, grid in suite:
        assert isinstance(grid, PotentialGrid)
        assert float(grid.values.min()) >= 0.0
    bench = dict(suite)
    assert bench["squareWell"].n == 1000
    assert bench["harmonic"].n == 4000
    assert bench["coneModel64"].n == 8 * 64
    assert bench["coneModel64"].b == 64.0


def test_thm1_suite_subset_filter():
    suite = pipeline.thm1_suite(["harmonic", "squareWell"])
    assert [name for name, _ in suite] == ["harmonic", "squareWell"]
    with pytest.raises(Exception):
        pipeline.thm1_suite(["noSuchWell"])


def test_verify_thm1_squarewell_row():
    rows = pipeline.verify_thm1(pipeline.thm1_suite(["squareWell"]))
    assert len(rows) == 1
    row = rows[0]
    assert row["potential"] == "squareWell"
    assert row["fStar"] == pytest.approx(1.0, rel=1e-9)
    assert row["lower"] == pytest.approx(0.004, rel=1e-9)
    assert row["upper"] == pytest.approx(PI2, rel=1e-9)
    assert row["lambda1"] == pytest.approx(PI2, rel=1e-4)
    assert row["sandwichPass"] and row["linfPass"] and row["pass"]
    assert row["linfRatio"] <= row["linfBound"] * 1.02


def test_verify_thm1_linfty_square_well():
    row = pipeline.verify_thm1(pipeline.thm1_suite(["squareWell"]))[0]
    assert row["linfRatio"] == pytest.approx(math.sqrt(2.0), abs=1e-3)
    assert row["linfBound"] == pytest.approx((2 * PI2) ** 0.25, rel=1e-6)
    assert row["linfPass"] == 1


def test_verify_thm1_linfty_harmonic_gaussian_ratio():
    row = pipeline.verify_thm1(pipeline.thm1_suite(["harmonic"]))[0]
    assert row["linfRatio"] == pytest.approx(math.pi ** (-0.25), abs=1e-3)
    assert row["linfBound"] == pytest.approx(2.0**0.25, rel=1e-4)
    assert row["linfPass"] == 1


def test_verify_thm1_linfty_rejects_negative_potential():
    g = sample(PotentialSpec("harmonic", (), (-2.0, 2.0)), 99)
    with pytest.raises(ParameterError, match="nonnegative"):
        pipeline.verify_thm1([("shifted", shift(g, -1.0))])


def test_verify_thm1_linfty_verdict_reads_its_band(monkeypatch):
    # a sup-norm band out of reach fails that check alone
    monkeypatch.setattr(pipeline, "LINF_SLACK", -0.5)
    row = pipeline.verify_thm1(pipeline.thm1_suite(["squareWell"]))[0]
    assert (row["sandwichPass"], row["linfPass"], row["pass"]) == (1, 0, 0)


def test_rearrange_verdict_reads_its_band(monkeypatch):
    monkeypatch.setattr(pipeline, "CHAIN_SLACK_FACTOR", -1e3)
    rows = pipeline.rearrange_random_suite(count=2, seed=11, n=200)
    assert [r["pass"] for r in rows] == [0, 0]
    assert all(r["slack"] < 0 for r in rows)


def test_rearrange_suite_deterministic_and_passing():
    first = pipeline.rearrange_random_suite(count=3, seed=11)
    second = pipeline.rearrange_random_suite(count=3, seed=11)
    assert first == second
    assert len(first) == 3
    for row in first:
        assert row["pass"] == 1
        assert row["lambdaRearranged"] <= row["lambdaOriginal"] + row["slack"]
    other = pipeline.rearrange_random_suite(count=3, seed=12)
    assert other != first


def test_rearrange_suite_solves_each_draw_twice(monkeypatch):
    # one ground state for the drawn well, one eigenvalue for its rearrangement
    solve = rearrange.smallest_eigenpair
    calls = []

    def counting(grid, *args, **kwargs):
        calls.append(grid.n)
        return solve(grid, *args, **kwargs)

    monkeypatch.setattr(rearrange, "smallest_eigenpair", counting)
    monkeypatch.setattr(pipeline, "smallest_eigenpair", counting)
    pipeline.rearrange_random_suite(count=3, seed=11, n=200)
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


def test_vdberg_sweep_sorts_by_size():
    rows = pipeline.vdberg_sweep([12.0, 8.0, 12.0], spacing=1.0 / 16.0, tol=1e-6)
    assert [r["D"] for r in rows] == [8.0, 12.0]


def _verdict_rows():
    # sup ratio ~ D^-1 decays faster than D^SLOPE_MAX; every band holds
    return [
        {"D": d, "rho": 1.0, "shiftedProduct": 1.0, "oneDimRatio": 1.0,
         "statistic": 1.0, "supRatio": 1.0 / d}
        for d in (8.0, 16.0)
    ]


def test_vdberg_verdict_passes_in_band():
    verdict = pipeline.vdberg_verdict(_verdict_rows())
    assert verdict["allPass"] == 1
    assert verdict["slope"] == pytest.approx(-1.0, rel=1e-12)
    assert verdict["statSpread"] == 1.0
    single = pipeline.vdberg_verdict(_verdict_rows()[:1])
    assert single["allPass"] == 1 and single["slope"] is None


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
    assert pipeline.vdberg_verdict(rows)["allPass"] == 0


def test_gj_compare_run_bands():
    result = pipeline.gj_compare_run([16.0], spacing=1.0 / 32.0, tol=1e-7)
    assert result["rectBudget"] == pipeline.RECT_ERROR_BUDGET == 1e-2
    assert 0 <= result["rectError"] <= 1e-2
    assert result["rectPass"] == 1
    (row,) = result["rows"]
    assert row["D"] == 16.0
    assert 0.25 <= row["ratio"] <= 4.0
    assert row["pass"] == 1
