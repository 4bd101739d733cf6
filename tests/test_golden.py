"""Every number of the comparison command lines against tests/golden.json.

record_golden.py records the file; this test reruns each line in-process
and compares field by field. Exit codes, headers, row counts, names,
flags and integers must be equal. A number must lie within its kind's
band of the recorded one, |got - want| <= band * max(|want|, 1):
- exact: sublevel scans, geometry and closed forms, 1e-12
- eig1d: 1D eigenvalues and what is computed from a 1D eigenpair, 1e-10;
  the BLAS thread count moves the harmonic n=1e5 lambda1 by 5.5e-12
- eig2d: quantities of a 2D eigenpair, EIG2D_TOLS times the line's `tol`,
  the relative residual the 2D solver stops at
"""

import json
import math

import pytest

from record_golden import GOLDEN_PATH, LINES, outputs

GOLDEN = json.loads(GOLDEN_PATH.read_text())

BAND = {"exact": 1e-12, "eig1d": 1e-10}
EIG2D_TOLS = 10.0

# a number's kind, by its field: a summary or CSV column name, or the last
# part of a check's name; "command.field" where a name means another thing there
KIND = {
    **dict.fromkeys(
        ["fStar", "yStar", "widthAtYStar", "lower", "upper", "upperSharp", "y", "width", "functional",
         "x", "dx", "D", "rho", "L", "inradius", "diameter", "minWidth", "widthRatio", "alpha", "beta",
         "gamma", "objective", "exactGap", "exactObjective", "feasible", "seedIndex", "pass"],
        "exact",
    ),
    **dict.fromkeys(
        ["lambda1", "residual", "f", "hlLeft", "hlRight", "psLeft", "psRight", "lambdaOriginal",
         "lambdaRearranged", "slack", "chain", "linfRatio", "linfBound", "linf", "sandwich",
         "lambdaGJ", "lambdaModel", "shiftedProduct"],
        "eig1d",
    ),
    **dict.fromkeys(
        ["vdberg.lambda1", "vdberg.shiftedProduct", "lambdaNormalized", "supRatio", "statistic",
         "gjError", "oneDimRatio", "slope", "statSpread", "ratio", "rectError", "value"],
        "eig2d",
    ),
}


def _band(command, field, config):
    kind = KIND.get(f"{command}.{field}") or KIND[field]
    return EIG2D_TOLS * config["tol"] if kind == "eig2d" else BAND[kind]


def _mismatches(got, want, band, field, where):
    """Each place where got departs from want; band(field) gives a number's band."""
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        fields = {key: key for key in want}
        if "bound" in want:  # a named check: value and bound take its name's last part
            fields["value"] = fields["bound"] = want["name"].rsplit(".", 1)[-1]
        return [
            m for key in want for m in _mismatches(got[key], want[key], band, fields[key], f"{where}.{key}")
        ]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        pairs = enumerate(zip(got, want))
        return [m for i, (g, w) in pairs for m in _mismatches(g, w, band, field, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        close = got == want or abs(got - want) <= band(field) * max(abs(want), 1.0)
        if close or math.isnan(got) and math.isnan(want):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def test_golden_covers_every_line():
    assert list(GOLDEN) == [" ".join(argv) for argv in LINES]


@pytest.mark.parametrize("argv", LINES, ids=" ".join)
def test_outputs_match_golden(argv, tmp_path):
    want = GOLDEN[" ".join(argv)]
    got = outputs(argv, tmp_path / "out")
    assert got.keys() == want.keys()
    assert got["exit"] == want["exit"]
    if "payload" not in want:
        return
    assert (got["header"], got["rows"]) == (want["header"], want["rows"])
    payload = want["payload"]
    assert {k: got["payload"][k] for k in ("command", "input", "config")} == {
        k: payload[k] for k in ("command", "input", "config")
    }

    def band(field):
        return _band(payload["command"], field, payload["config"])

    problems = _mismatches(got["payload"]["summary"], payload["summary"], band, None, "summary")
    if "csv" in want:
        columns = want["header"].split(",")
        problems += _mismatches(
            [dict(zip(columns, row)) for row in got["csv"]],
            [dict(zip(columns, row)) for row in want["csv"]],
            band, None, "csv",
        )
    assert not problems, "\n".join(problems[:20])
