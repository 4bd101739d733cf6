import dataclasses

import numpy as np
import pytest

from specgap import pipeline
from specgap.eigensolve1d import smallest_eigenpair
from specgap.potential import PotentialGrid, PotentialSpec, sample
from specgap.rearrange import (
    _center_out_positions,
    symmetric_decreasing,
    symmetric_increasing,
    verify_chain,
)


def test_decreasing_odd_center_gets_largest():
    out = symmetric_decreasing(np.array([1.0, 3.0, 2.0]))
    np.testing.assert_array_equal(out, [1.0, 3.0, 2.0])


def test_decreasing_even_center_left_of_middle():
    out = symmetric_decreasing(np.array([4.0, 3.0, 2.0, 1.0]))
    np.testing.assert_array_equal(out, [2.0, 4.0, 3.0, 1.0])


def test_decreasing_five_point_layout():
    out = symmetric_decreasing(np.array([5.0, 4.0, 3.0, 2.0, 1.0]))
    # descending values at positions center, right, left, right, left
    np.testing.assert_array_equal(out, [1.0, 3.0, 5.0, 4.0, 2.0])


def test_center_out_positions_match_placement_loop():
    # the placement rule stepped node by node: center, then right/left pairs
    for m in range(1, 40):
        center = (m - 1) // 2 if m % 2 == 1 else m // 2 - 1
        expected = [center]
        for step in range(1, m):
            expected += [center + step, center - step]
        np.testing.assert_array_equal(_center_out_positions(m), expected[:m])


def test_decreasing_matches_direct_placement_bit_for_bit():
    # reference: sort |f| descending (stable) and place it center-out directly;
    # the negated increasing rearrangement of -|f| must give the same bits
    rng = np.random.default_rng(11)
    for m in (1, 2, 5, 64, 301):
        f = rng.integers(-3, 4, m).astype(float) * rng.choice([1.0, 0.5], m)
        f[rng.random(m) < 0.2] = -0.0
        f[rng.random(m) < 0.1] = 0.0
        mag = np.abs(f)
        expected = np.empty(m)
        expected[_center_out_positions(m)] = mag[np.argsort(-mag, kind="stable")]
        out = symmetric_decreasing(f)
        assert out.tobytes() == expected.tobytes()
        assert not np.any(np.signbit(out))


def test_decreasing_stable_ties():
    out = symmetric_decreasing(np.array([2.0, 1.0, 2.0]))
    np.testing.assert_array_equal(out, [1.0, 2.0, 2.0])


def test_decreasing_idempotent():
    f = np.array([0.1, 0.7, 1.0, 0.4, 0.2])
    once = symmetric_decreasing(f)
    twice = symmetric_decreasing(once)
    np.testing.assert_array_equal(once, twice)


def test_decreasing_preserves_multiset_and_mass():
    rng = np.random.default_rng(5)
    f = rng.uniform(0, 3, 101)
    out = symmetric_decreasing(f)
    np.testing.assert_array_equal(np.sort(out), np.sort(f))
    assert np.sum(out**2) == pytest.approx(np.sum(f**2), rel=1e-15)


def test_decreasing_takes_absolute_value():
    out = symmetric_decreasing(np.array([-3.0, 1.0, 2.0]))
    np.testing.assert_array_equal(out, [1.0, 3.0, 2.0])


def test_increasing_center_gets_smallest():
    out = symmetric_increasing(np.array([5.0, 0.0, 3.0]))
    np.testing.assert_array_equal(out, [5.0, 0.0, 3.0])
    out = symmetric_increasing(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(out, [3.0, 1.0, 2.0])


def test_increasing_constant_unchanged():
    v = np.full(7, 4.2)
    np.testing.assert_array_equal(symmetric_increasing(v), v)


def test_increasing_equimeasurable_widths():
    from specgap.sublevel import width

    rng = np.random.default_rng(8)
    vals = rng.uniform(0, 10, 102)
    g = PotentialGrid(a=0.0, b=1.0, values=vals)
    vstar = symmetric_increasing(vals[1:-1])
    gstar = PotentialGrid(a=0.0, b=1.0, values=np.concatenate(([vals.max()], vstar, [vals.max()])))
    for y in np.quantile(vals, [0.1, 0.3, 0.5, 0.8]):
        assert width(g, float(y)) == width(gstar, float(y))


def chain(g):
    """The ground state of g, and verify_chain's report on it."""
    pair = smallest_eigenpair(g)
    return pair, verify_chain(g, pair)


def test_chain_on_symmetric_potential_degenerates_to_equalities():
    g = sample(PotentialSpec(kind="harmonic", params=[], interval=(-4.0, 4.0)), 99)
    _, r = chain(g)
    assert r.hlLeft == pytest.approx(r.hlRight, rel=1e-10, abs=1e-12)
    assert r.psLeft == pytest.approx(r.psRight, rel=1e-8)
    assert r.lambdaRearranged == pytest.approx(r.lambdaOriginal, abs=1e-7)


def test_chain_on_square_well_is_tight():
    g = sample(PotentialSpec(kind="squareWell", params=[], interval=(0.0, 1.0)), 200)
    _, r = chain(g)
    assert r.hlLeft == r.hlRight == 0.0
    assert r.psLeft == pytest.approx(r.psRight, rel=1e-12)
    assert r.lambdaRearranged == pytest.approx(r.lambdaOriginal, abs=1e-8)


def _random_piecewise_grid(rng, n=800, knots=8, vmax=50.0):
    xs = np.linspace(0.0, 1.0, knots)
    ys = rng.uniform(0.0, vmax, knots)
    params = np.column_stack([xs, ys]).ravel().tolist()
    spec = PotentialSpec(kind="piecewiseLinear", params=params, interval=(0.0, 1.0))
    return sample(spec, n)


def test_chain_inequalities_on_random_suite():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        g = _random_piecewise_grid(rng)
        pair, r = chain(g)
        check = pipeline._chain("chain", g, pair.f, r)
        eps = check["bound"][1]
        # the value pairing in the rearranged sum is extremal, so this one
        # holds to rounding, no discretization slack needed
        assert r.hlLeft >= r.hlRight - 1e-9 * max(1.0, abs(r.hlLeft))
        assert r.psLeft <= r.psRight + eps
        assert r.lambdaRearranged <= r.lambdaOriginal + eps
        assert eps > 0 and check["pass"]


def test_chain_slack_scales_with_dx():
    g1 = sample(PotentialSpec(kind="harmonic", params=[], interval=(-2.0, 2.0)), 100)
    g2 = sample(PotentialSpec(kind="harmonic", params=[], interval=(-2.0, 2.0)), 200)
    (p1, r1), (p2, r2) = chain(g1), chain(g2)
    s1 = pipeline._chain("chain", g1, p1.f, r1)["bound"][1]
    s2 = pipeline._chain("chain", g2, p2.f, r2)["bound"][1]
    assert s2 < s1
    vrange = g1.values.max() - g1.values.min()
    assert s1 == pytest.approx(10.0 * g1.dx * vrange * np.max(np.abs(p1.f)) ** 2, rel=1e-12)


def test_report_slack_is_chain_slack_of_the_ground_state():
    # the suite draws its wells as _random_piecewise_grid does, and judges
    # each with the allowance of the drawn well's ground state
    summary, _ = pipeline.rearrange_random_suite(
        count=1, knots=8, vmax=50.0, interval=(0.0, 1.0), n=200, seed=7
    )
    (row,) = summary["rows"]
    g = _random_piecewise_grid(np.random.default_rng(7), n=200)
    pair, r = chain(g)
    assert {k: row[k] for k in dataclasses.asdict(r)} == dataclasses.asdict(r)
    check = pipeline._chain("draw0.chain", g, pair.f, r)
    assert summary["checks"] == [check]
    assert row["slack"] == check["bound"][1]
    assert row["pass"] == check["pass"] == 1


@pytest.mark.parametrize(
    "field, other",
    [("hlRight", "hlLeft"), ("psLeft", "psRight"), ("lambdaRearranged", "lambdaOriginal")],
)
def test_report_fails_when_one_comparison_passes_slack(field, other):
    g = _random_piecewise_grid(np.random.default_rng(7), n=200)
    pair, r = chain(g)
    check = pipeline._chain("chain", g, pair.f, r)
    assert check["pass"]
    slack = check["bound"][1]
    broken = dataclasses.replace(r, **{field: getattr(r, other) + 2.0 * slack})
    assert pipeline._chain("chain", g, pair.f, broken)["pass"] == 0
