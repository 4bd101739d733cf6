"""The paper's invariants as properties over random piecewise-linear wells."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specgap.cli import main
from specgap.eigensolve1d import smallest_eigenpair
from specgap.potential import PotentialGrid, PotentialSpec, sample, shift
from specgap.sublevel import minimize_functional
from test_eigensolve1d import sine_testfunction_bound

PI2 = math.pi**2

# few, reproducible examples keep the suite fast and deterministic
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def wells(draw):
    """Nonnegative piecewise-linear wells: knot values fall, then rise, so
    every sublevel set is one interval. Integer knot values keep every
    sample either on min V or well above it, so adding a constant cannot
    round a sample onto the minimum."""
    length = draw(st.floats(0.5, 20.0))
    values = draw(st.lists(st.integers(0, 200).map(float), min_size=3, max_size=8))
    turn = draw(st.integers(0, len(values) - 1))
    values = sorted(values[: turn + 1], reverse=True) + sorted(values[turn + 1 :])
    knots = [length * i / (len(values) - 1) for i in range(len(values))]
    params = [v for pair in zip(knots, values) for v in pair]
    return sample(PotentialSpec("piecewiseLinear", params, (0.0, length)), 400)


@PROPERTY
@given(grid=wells(), c=st.floats(-50.0, 50.0))
def test_shift_equivariance(grid, c):
    moved = shift(grid, c)
    lam0 = smallest_eigenpair(grid).lambda1
    lam1 = smallest_eigenpair(moved).lambda1
    assert lam1 == pytest.approx(lam0 + c, rel=1e-9, abs=1e-9)
    f0 = minimize_functional(grid).fStar
    assert minimize_functional(moved).fStar == pytest.approx(f0 + c, rel=1e-10, abs=1e-10)


@PROPERTY
@given(grid=wells())
def test_sandwich_on_random_wells(grid):
    report = minimize_functional(grid)
    f_star = report.fStar
    lam = smallest_eigenpair(grid).lambda1
    assert f_star / 250.0 <= lam <= PI2 * f_star
    # the sharp bound and its sine-bump witness, up to the solver tolerance
    slack = 1.0 + 1e-9
    if report.upperBoundSharp is not None:
        assert lam <= report.upperBoundSharp * slack
    witness = sine_testfunction_bound(grid, report.yStar)
    assert lam <= witness * slack
    assert witness <= (PI2 / report.widthAtYStar**2 + report.yStar) * slack


@PROPERTY
@given(grid=wells(), s=st.sampled_from([0.25, 0.5, 2.0, 4.0]))
def test_scaling(grid, s):
    # V(x) -> s^2 V(s x) on [a/s, b/s] with the same n
    scaled = PotentialGrid(a=grid.a / s, b=grid.b / s, values=s * s * grid.values)
    lam0 = smallest_eigenpair(grid).lambda1
    lam1 = smallest_eigenpair(scaled).lambda1
    assert lam1 == pytest.approx(s * s * lam0, rel=1e-10)
    f0 = minimize_functional(grid).fStar
    assert minimize_functional(scaled).fStar == pytest.approx(s * s * f0, rel=1e-10)


_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10**6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e200", "-1e200", "0", "-1", "abc", "true"]),
)
_SIZE = st.one_of(st.integers(-5, 5000).map(str), st.sampled_from(["abc", "nan", "inf", "2.5"]))
_PAIR = st.tuples(_NUMBER, _NUMBER).map(",".join)
_KINDS = ["squareWell", "linearWell", "harmonic", "quartic", "coneModel", "samples",
          "piecewiseLinear", "noSuchKind"]
_PARAMS = st.lists(_NUMBER, min_size=1, max_size=6).map(",".join)

# the keys each fuzzed command takes, with sizes capped so an example stays fast
_FUZZ = {
    "bound": {"kind": st.sampled_from(_KINDS), "params": _PARAMS, "interval": _PAIR, "n": _SIZE},
    "eig1d": {"kind": st.sampled_from(_KINDS), "params": _PARAMS, "interval": _PAIR,
              "n": _SIZE, "tol": _NUMBER},
    "constants": {"alpha": _NUMBER, "beta": _NUMBER, "gamma": _NUMBER,
                  "budget": st.integers(-5, 2000).map(str)},
    "rearrangeCheck": {"count": st.integers(-1, 2).map(str), "knots": st.integers(-1, 50).map(str),
                       "vmax": _NUMBER, "interval": _PAIR, "n": _SIZE},
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(_FUZZ)))
    argv = [command]
    keys = draw(st.lists(st.sampled_from(sorted(_FUZZ[command])), unique=True))
    for key in keys:
        argv += ["--set", f"{key}={draw(_FUZZ[command][key])}"]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-3, 2**32)))]
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@PROPERTY
@given(argv=command_lines())
@example(argv=["rearrangeCheck", "--seed", "-1"])
@example(argv=["constants", "--set", "budget=5", "--seed", "-1"])
@example(argv=["rearrangeCheck", "--set", "count=2", "--set", "vmax=nan"])
@example(argv=["rearrangeCheck", "--set", "count=2", "--set", "vmax=inf"])
@example(argv=["eig1d", "--set", "interval=0,inf"])
@example(argv=["bound", "--set", "interval=0,inf"])
@example(argv=["bound", "--set", "interval=-inf,0"])
@example(argv=["eig1d", "--set", "interval=0,1e200"])
@example(argv=["eig1d", "--set", "interval=0,1.3615560046475493e-121"])
@example(argv=["eig1d", "--set", "tol=inf"])
@example(argv=["eig1d", "--set", "tol=1e200"])
@example(argv=["constants", "--set", "gamma=inf"])
@example(argv=["eig1d", "--set", "params=inf"])
@example(argv=["eig1d", "--set", "n=999.9"])
@example(argv=["bound", "--set", "n=" + "9" * 401])
@example(argv=["rearrangeCheck", "--set", "knots=" + "9" * 401])
def test_cli_fuzz_exits_cleanly(argv):
    # any --set values: exit 0, 1 or 2 and no traceback; every .json a run
    # writes, whatever its status, is strict JSON: no NaN or Infinity
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "fz"
        status = main(argv + ["--out", str(prefix)])
        assert status in (0, 1, 2)
        written = prefix.with_suffix(".json")
        if written.exists():
            json.loads(written.read_text(), parse_constant=_reject_constant)
