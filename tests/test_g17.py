"""format_g17 against Python's own '%.17g', byte for byte."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specgap import g17
from specgap.cli import CSV_CHUNK_ROWS
from specgap.g17 import FIELD, K_MAX, KERNEL_MIN, format_g17


def kernel_text(values) -> bytes:
    """The lines format_g17 makes of values, in the CLI's chunks, its
    padding dropped."""
    values = np.asarray(values, dtype=np.float64)
    lines = np.full((len(values), FIELD + 1), ord("\n"), np.uint8)
    for start in range(0, len(values), CSV_CHUNK_ROWS):
        format_g17(values[start : start + CSV_CHUNK_ROWS], lines[start : start + CSV_CHUNK_ROWS, :-1])
    return lines.tobytes().translate(None, b"\0")


def assert_exact(values):
    values = np.asarray(values, dtype=np.float64).tolist()
    want = ("%.17g\n" * len(values) % tuple(values)).encode()
    got = kernel_text(values)
    if got != want:
        pairs = zip(values, got.decode().splitlines(), want.decode().splitlines())
        raise AssertionError([(v, g, w) for v, g, w in pairs if g != w][:5] or "line count")


@pytest.fixture(autouse=True)
def kernel_at_every_size(monkeypatch):
    # these tests hold the kernel to Python's bytes, short inputs included
    monkeypatch.setattr(g17, "KERNEL_MIN", 0)


@pytest.fixture
def handed_to_python(monkeypatch):
    """The values format_g17 leaves to Python's '%.17g'."""
    seen = []

    def by_python(values):
        seen.extend(values.tolist())
        return fallback(values)

    fallback = g17._by_python
    monkeypatch.setattr(g17, "_by_python", by_python)
    return seen


def is_tie(value):
    """Whether |value|'s exact decimal expansion ends in a 5 right after
    its 17th significant digit; '.40e' is exact for the short dyadics here."""
    digits = format(abs(value), ".40e").partition("e")[0].replace(".", "")
    return digits[17] == "5" and set(digits[18:]) == {"0"}


def test_random_bit_patterns():
    # every 64-bit pattern is as likely: both signs, nan, inf, subnormals,
    # and the exponents past K_MAX all come up
    bits = np.random.default_rng(20161).integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 10**6)
    values = bits.view(np.float64)
    assert (values < 0).any() and (values > 0).any()
    assert_exact(values)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([0.1, -2.5e-5, 1e16, 1e17, 123456789012345680.0, 5e-324])
def test_hypothesis_floats(values):
    assert_exact(values)


def test_powers_of_ten_and_their_neighbours():
    exact = np.array([float(f"1e{k}") for k in range(-320, 309)])
    powered = np.array([10.0**k for k in range(-320, 309)])
    for tens in exact, powered:
        assert_exact(np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)]))


def test_integers_at_the_17_digit_edges():
    for edge in 10**16, 10**17:
        assert_exact(np.arange(edge - 3000, edge + 3000, dtype=np.int64).astype(np.float64))
    assert_exact([9999999999999998.0, 99999999999999984.0, 1e16 - 1, 1e17 - 16])


def test_decade_carry(handed_to_python):
    # the double nearest 10^k can lie under it by so little that its 17
    # digits round up to 10^k: its decade is k - 1, its printed exponent k
    carried = []
    for k in range(-K_MAX, K_MAX):
        v = float(f"1e{k}")
        n, d = v.as_integer_ratio()
        below = n * 10**-k < d if k < 0 else n < d * 10**k
        mantissa = format(v, ".17g").partition("e")[0].replace(".", "").strip("0")
        if below and mantissa == "1":
            carried.append(v)
    assert len(carried) == 13  # 1e-14 and 1e98 among them
    assert_exact(carried)
    assert handed_to_python == []


def test_dyadic_ties_go_to_python(handed_to_python):
    # m / 2^j is exact in binary and has at most 16 + j significant decimal
    # digits; m / 4 with m odd in [4e15, 9e15) ends in a 5 at the 18th
    rng = np.random.default_rng(7)
    odd = rng.integers(2 * 10**15, 45 * 10**14, 20_000) * 2 + 1
    ties = (odd / 4.0).tolist()
    assert all(map(is_tie, ties))
    dyadic = (rng.integers(1, 2**53, 20_000) * 2.0 ** -rng.integers(1, 9, 20_000).astype(float)).tolist()
    more_ties = [v for v in dyadic if is_tie(v)]
    assert_exact(ties + [-t for t in ties] + dyadic)
    assert set(ties + more_ties) <= set(map(abs, handed_to_python))


def test_out_of_range_goes_to_python(handed_to_python):
    tiny = np.nextafter(0.0, 1.0)
    subnormals = [tiny, 2 * tiny, 12345 * tiny, np.nextafter(2.2250738585072014e-308, 0)]
    edges = [10.0**-K_MAX / 2, 1e-300, 10.0**K_MAX, 1e300, np.finfo(np.float64).max]
    special = [0.0, -0.0, np.inf, -np.inf, np.nan]
    values = subnormals + edges + special
    values += [-v for v in subnormals + edges]
    assert_exact(values)
    assert len(handed_to_python) == len(values)
    assert kernel_text([np.nan, -0.0, 0.0]) == b"nan\n-0\n0\n"


def test_short_arrays_go_to_python_whole(monkeypatch, handed_to_python):
    monkeypatch.setattr(g17, "KERNEL_MIN", KERNEL_MIN)
    values = np.random.default_rng(5).standard_normal(KERNEL_MIN).tolist()
    assert_exact(values[:-1])
    assert handed_to_python == values[:-1]
    assert_exact(values)
    assert handed_to_python == values[:-1]
