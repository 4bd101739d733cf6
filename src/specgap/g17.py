"""Python's '%.17g' for a float64 array, byte for byte, in numpy.

format_g17(values, out) writes one row of FIELD bytes per value: the text
of '%.17g' % value, padded with NUL bytes that bytes.translate(None, b"\\0")
drops. For a nonzero finite value v with k = floor(log10|v|) in
[-K_MAX, K_MAX] it

1. scales |v| by 10^(16-k) as a double-double (hi, lo): Dekker's exact
   product (Numer. Math. 18, 1971) of |v| with the hi part of 10^p, plus
   |v| times its lo part, where hi + lo holds 10^p to about 2^-106;
2. settles k by exact comparisons of (hi, lo) with 1e16 and 1e17;
3. rounds hi + lo to the 17-digit integer d, at an absolute error of
   about 1e-14, far below the TIE margin; a d of 10^17 carries into the
   next decade;
4. lays the digits of d into the byte template of its decimal exponent.

Every other value is handed to Python's '%.17g' itself: nan, inf, +-0,
|k| > K_MAX, and a scaled value within TIE of a rounding tie, where the
double-double could round the wrong way. So the bytes equal Python's by
construction, not by tolerance. An array of fewer than KERNEL_MIN values
goes to Python whole, which is faster at that size.

A field is laid out as the sign, the prefix "0.000" of an exponent in
[-4, -1], the 17 digits each followed by a slot for the decimal point,
and the suffix "e-308"; a slot a number does not use holds NUL.
"""

import functools

import numpy as np

K_MAX = 280  # |v| in [1e-280, 1e280): every 10^p stays normal, and so do Dekker's parts
TIE = 1e-6  # how near to half an integer the scaled value goes to Python
# fewer values than this all go to Python: its '%.17g' takes about 0.5 us a
# value, the kernel about 0.15 ms a call and its tables 3 ms once
KERNEL_MIN = 256
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for a double
_DIGITS = 6  # the field's column of the first digit; digit i sits at _DIGITS + 2 i
FIELD = _DIGITS + 2 * 17 + 5
_P_MIN, _P_MAX = 16 - (K_MAX + 1), 16 + (K_MAX + 1)  # the scalings 10^(16-k) in use
_X_MIN, _X_MAX = -(K_MAX + 1), K_MAX + 2  # the printed exponents, after a carry out


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers():
    """10^p for p in [_P_MIN, _P_MAX] as hi + lo, each correctly rounded
    from Python ints, and Veltkamp's split of hi."""
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        h = num / den  # int true division rounds correctly
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))  # 10^p - h, rounded once
    hi = np.array(hi)
    return (hi, np.array(lo), *_split(hi))


@functools.cache
def _templates():
    """Per printed exponent X: its field with every digit slot NUL, and
    the index of its last integer digit, -1 for the fixed form of X < 0."""
    exponents = np.arange(_X_MIN, _X_MAX + 1)
    fixed = (exponents >= -4) & (exponents < 17)
    last_int = np.select([~fixed, exponents < 0], [0, -1], exponents)
    rows = bytearray()
    for x, i, fix in zip(exponents.tolist(), last_int.tolist(), fixed.tolist()):
        row = bytearray(FIELD)
        if i < 0:
            prefix = b"0." + b"0" * (-x - 1)
            row[1 : 1 + len(prefix)] = prefix
        elif i < 16:
            row[_DIGITS + 1 + 2 * i] = ord(".")
        if not fix:
            suffix = b"e%+03d" % x
            row[FIELD - len(suffix) :] = suffix
        rows += row
    return np.frombuffer(rows, np.uint8).reshape(-1, FIELD), last_int


@functools.cache
def _quads():
    """The four ASCII digits of each of 0..9999, as one uint32 each."""
    n = np.arange(10_000, dtype=np.uint16)[:, None]  # small temporaries: no RSS left behind
    places = np.array([1000, 100, 10, 1], np.uint16)
    return (48 + n // places % 10).astype(np.uint8).view(np.uint32).ravel()


def _scaled(a, k):
    """a * 10^(16-k) as an unevaluated sum hi + lo with hi = fl(hi + lo)."""
    at = 16 - _P_MIN - k
    p_hi, p_lo, p_hh, p_hl = (np.take(t, at) for t in _powers())
    product = a * p_hi
    a_h, a_l = _split(a)
    err = ((a_h * p_hh - product) + a_h * p_hl + a_l * p_hh) + a_l * p_hl
    err += a * p_lo
    hi = product + err
    return hi, err - (hi - product)


def _misplaced(hi, lo):
    """-1 where hi + lo < 1e16, +1 where it is >= 1e17, else 0: exact."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return above.astype(np.intp) - below


def _decimal(v):
    """Each |v| as d * 10^(X-16) with d the 17-digit integer nearest it,
    returned as (d, X - _X_MIN, fast); fast is False where d is not
    settled here and the value goes to Python."""
    a = np.abs(v)
    fast = (a >= 10.0**-K_MAX) & (a < 10.0**K_MAX)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, k)
    shift = _misplaced(hi, lo)
    moved = np.flatnonzero(shift)
    if moved.size:  # log10 was one off, next to a power of ten
        k[moved] += shift[moved]
        hi[moved], lo[moved] = _scaled(a[moved], k[moved])
        fast[moved[_misplaced(hi[moved], lo[moved]) != 0]] = False
    rounded = np.rint(lo)
    fast &= np.abs(np.abs(lo - rounded) - 0.5) >= TIE
    d = hi.astype(np.int64) + rounded.astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    return d, k + carry - _X_MIN, fast


def format_g17(values, out) -> None:
    """Write '%.17g' % v for each v of the float64 array values to the
    matching row of out, a (len(values), FIELD) uint8 array, NUL-padded."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < KERNEL_MIN:
        out[...] = _by_python(v)
        return
    d, x, fast = _decimal(v)

    # the 17 digits: the lead, then four groups of four, one uint32 each
    lead = d // 10**16
    upper, lower = np.divmod(d - lead * 10**16, 10**8)
    buf = np.empty((v.size, 20), np.uint8)
    buf[:, 3] = 48 + lead
    groups = buf.view(np.uint32)
    for at, group in enumerate((*np.divmod(upper, 10_000), *np.divmod(lower, 10_000)), 1):
        groups[:, at] = np.take(_quads(), group)
    digits = buf[:, 3:]
    templates, last_int = _templates()
    out[...] = np.take(templates, x, axis=0)
    out[:, _DIGITS : _DIGITS + 34 : 2] = digits

    # '%.17g' drops the fraction's trailing zeros, and its point with the last
    tail = np.flatnonzero(digits[:, 16] == 48)
    if tail.size:
        last = 16 - np.argmax(digits[tail, ::-1] != 48, axis=1)  # the last nonzero digit
        whole = last_int[x[tail]]
        kept = np.arange(17) <= np.maximum(last, whole)[:, None]
        out[tail, _DIGITS : _DIGITS + 34 : 2] *= kept
        bare = last <= whole
        out[tail[bare], _DIGITS + 1 + 2 * whole[bare]] = 0
    out[:, 0] = np.signbit(v) * ord("-")

    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = _by_python(v[slow])


def _by_python(values) -> np.ndarray:
    """Python's own '%.17g' % v of each value, as format_g17 lays it out."""
    text = ["%.17g" % value for value in values.tolist()]
    return np.array(text, dtype=f"S{FIELD}").view(np.uint8).reshape(-1, FIELD)
