"""Python's `repr` of float64 arrays as bytes, with no per-element call.

`repr(x)` of a float is the shortest decimal string that reads back as
x. Decimal exponents -4..15 are written positionally ('0.0001',
'1234.5', with '.0' added to integral values) and the others as
d.ddde±XX ('1e-05', '1e+16', '5e-324'). `rows` writes a table of floats
as CSV lines of exactly those strings.

Three layers, each on whole arrays:

- `_shortest`: the shortest digits and their decimal exponent, by Ryu's
  d2s algorithm (Adams, "Ryu: fast float-to-string conversion", PLDI
  2018) on np.uint64 arrays. Each 64x128-bit product is built from
  32-bit halves. The 5^-q and 5^i multipliers are built from Python
  ints on first use and indexed, like every per-exponent constant, by
  the biased binary exponent. The digit-removal loop runs on every
  element at once, cutting 16, 8, 4, 2 and 1 digits where they can
  go; so does the branch that tracks exact trailing zeros, which
  integers and dyadic values such as 0.5 take.
- `_cells`: the layout. Each value becomes a 24-byte cell, three
  little-endian uint64 words holding its repr left-aligned and
  NUL-padded: the 17 ASCII digits are shifted behind the sign and any
  '0.00' prefix, split by the '.', cut to length, and given their
  'e±XX' suffix, with word shifts and masks from small tables. Zeros
  and the other integers below 2^53 are their own digits, as in Ryu's
  small-integer case; inf, -inf and nan are fixed cells.
- `rows`: the index, cells, commas and newlines of a block of rows go
  into one word matrix, which is written out with its NULs removed.
- `write_rows`: rows into a binary file, `rows` one chunk at a time,
  the chunks split across forked processes: every table the package writes.

The tables are built on the first call, never at import.
"""

import contextlib
import functools
import os
import shutil
import sys
import tempfile
import traceback
import warnings

import numpy as np

__all__ = ["CSV_CHUNK_ROWS", "rows", "write_rows"]

CSV_CHUNK_ROWS = 1 << 13  # rows per chunk of write_rows
_U64 = np.uint64
_MAGNITUDE = _U64((1 << 63) - 1)
_EXP_INF = _U64(0x7FF << 52)
_MANTISSA = _U64((1 << 52) - 1)
_LOW32 = _U64(0xFFFFFFFF)
_0, _1, _8, _32, _52, _56, _63, _64 = (_U64(k) for k in (0, 1, 8, 32, 52, 56, 63, 64))
# Ryu's bit counts of the 5^-q and 5^i multipliers.
_POW5_INV_BITCOUNT = 125
_POW5_BITCOUNT = 125
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)
_CELL_BYTES = 24
_EXPONENT_BIAS = 330  # row of the exponent 0 in the suffix table: -324 <= E <= 308
# Values per block of `rows`. A block's temporaries are 64 KB arrays;
# 128 KB ones measured several times slower per operation, each coming
# from freshly mapped pages (glibc maps allocations of 128 KB and up).
_BLOCK = 1 << 13


@functools.cache
def _exponent_tables() -> dict[str, np.ndarray]:
    """Ryu's constants for each biased binary exponent b of a double.

    mul0, mul1: the low and high words of the multiplier, 2^(bits(5^q)
    - 1 + 125) // 5^q + 1 for e2 >= 0 and 5^i cut to its top 125 bits
    for e2 < 0, with e2 = max(b, 1) - 1077 the exponent of the
    mantissa scaled by 4; shift: Ryu's j - 65; e10: the decimal
    exponent of vr; hidden: the implicit mantissa bit; tz_mask: the bits
    of 2 m2 that must be 0 for vr to be exact (all ones where Ryu does
    not test them); exact: the exponents whose bounds can end in zeros
    (Ryu's q <= 21 for e2 >= 0 and q <= 1 for e2 < 0); up: e2 >= 0; q.
    """
    b = np.arange(2048, dtype=np.int64)
    e2 = np.maximum(b, 1) - (1023 + 52 + 2)
    up = e2 >= 0
    e2_up = np.maximum(e2, 0)
    e2_down = np.maximum(-e2, 0)
    q_up = ((e2_up * 78913) >> 18) - (e2_up > 3)  # log10Pow2(e2) - (e2 > 3)
    q_down = ((e2_down * 732923) >> 20) - (e2_down > 1)  # log10Pow5(-e2) - (-e2 > 1)
    i_down = e2_down - q_down
    q = np.where(up, q_up, q_down)
    j = np.where(
        up,
        q_up - e2_up + _POW5_INV_BITCOUNT + ((q_up * 1217359) >> 19),  # + pow5bits(q) - 1
        q_down + _POW5_BITCOUNT - ((i_down * 1217359) >> 19) - 1,  # - pow5bits(i)
    )
    n_inv = int(q_up.max()) + 1
    row = np.where(up, q_up, n_inv + i_down)
    multipliers = []
    pow5 = 1
    for _ in range(n_inv):
        multipliers.append((1 << (pow5.bit_length() - 1 + _POW5_INV_BITCOUNT)) // pow5 + 1)
        pow5 *= 5
    pow5 = 1
    for _ in range(int(i_down.max()) + 1):
        excess = pow5.bit_length() - _POW5_BITCOUNT
        multipliers.append(pow5 >> excess if excess >= 0 else pow5 << -excess)
        pow5 *= 5
    low, high = _words([v.to_bytes(16, "little") for v in multipliers], 16).T
    tz_bits = np.where(~up & (q < 63), q, 64).astype(np.uint64)
    return {
        "mul0": low[row],
        "mul1": high[row],
        "shift": (j - 65).astype(np.uint64),
        "e10": np.where(up, q_up, q_down + e2),
        "hidden": np.where(b > 0, _U64(1 << 52), _0),
        "tz_mask": ((_1 << tz_bits) - _1) >> _1,
        "exact": np.where(up, q <= 21, q <= 1),
        "up": up,
        "q": q,
    }


@functools.cache
def _layout_tables() -> dict[str, np.ndarray]:
    """The constant words of the layout.

    By key = min(max(E + 5, 0), 21) + 22 * sign, for the decimal
    exponent E of the first digit: shift, the bits the digits move right
    for the lead; lead, the sign and any '0.' + '0's that precede them;
    keep0..2, the bytes before the '.' (all of them where the lead holds
    it); dot0..2, the '.'; the cell length is max(count + grow, least)
    for `count` significant digits (exponent forms fix theirs later).
    mask0..2[L]: the first L bytes. suffix[E + 330]: 'e+XX' or 'e-XXX'.
    quad[d]: the 4 ASCII digits of d < 10^4, first digit lowest.
    digits_below, power_above: see below.
    fixed0..2[k]: the cells 'inf', '-inf' and 'nan'.
    """
    shift, lead, keep, dot, grow, least = [], [], [], [], [], []
    for sign in (0, 1):
        for code in range(22):
            e = code - 5
            minus = b"-" * sign
            if code in (0, 21):  # d.ddde±XX
                prefix, point = minus, sign + 1
            elif e < 0:  # 0.00ddd
                prefix, point = minus + b"0." + b"0" * (-e - 1), None
            else:  # ddd.ddd
                prefix, point = minus, sign + e + 1
            shift.append(8 * len(prefix))
            lead.append(prefix)
            keep.append(b"\xff" * (_CELL_BYTES if point is None else point))
            dot.append(b"" if point is None else b"\0" * point + b".")
            # positional: every digit, and at least one after the '.'
            grow.append(len(prefix) + (point is not None))
            least.append(0 if point is None else point + 2)
    pair = _words([b"%02d" % d for d in range(100)], 8)[:, 0]
    quad = (pair[:, None] | (pair[None, :] << _U64(16))).reshape(-1)
    # An integer 0 <= v < 10^17 whose double has the biased exponent e has
    # as many digits as 2^(e - 1023), digits_below[e], or one more if
    # v >= power_above[e]. Where v rounds up to a power of two as a
    # double, no power of ten lies between them.
    digits_below = np.ones(2048, dtype=np.intp)
    digits_below[1023:1023 + 64] = [len(str(1 << k)) for k in range(64)]
    exponents = range(-_EXPONENT_BIAS, _EXPONENT_BIAS)
    tables = {
        "digits_below": digits_below,
        "power_above": _POW10[digits_below],
        "shift": np.array(shift, dtype=np.uint64),
        "lead": _words(lead, 8)[:, 0],
        "grow": np.array(grow, dtype=np.int64),
        "least": np.array(least, dtype=np.int64),
        "suffix": _words([b"e%+03d" % e for e in exponents], 8)[:, 0],
        "quad": quad,
    }
    words = {
        "keep": _words(keep, _CELL_BYTES),
        "dot": _words(dot, _CELL_BYTES),
        "mask": _words([b"\xff" * n for n in range(_CELL_BYTES + 1)], _CELL_BYTES),
        "fixed": _words([b"inf", b"-inf", b"nan"], _CELL_BYTES),
    }
    for name, table in words.items():
        for w in range(3):
            tables[f"{name}{w}"] = table[:, w].copy()
    return tables


def _words(texts: list[bytes], width: int) -> np.ndarray:
    """(len(texts), width // 8) uint64: each text NUL-padded to width
    bytes, as little-endian words."""
    packed = b"".join(text.ljust(width, b"\0") for text in texts)
    return np.frombuffer(packed, dtype="<u8").astype(np.uint64).reshape(len(texts), -1)


def _mul_high(a0: np.ndarray, a1: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high word of a * b, for a = a1 * 2^32 + a0 with a1 < 2^22.

    No partial sum overflows: t = a1 * b0 + (a0 * b0 >> 32) < 2^55 and
    a0 * b1 + (t & LOW32) <= 2^64 - 2^32."""
    b0 = b & _LOW32
    b1 = b >> _32
    t = a1 * b0 + ((a0 * b0) >> _32)
    u = a0 * b1 + (t & _LOW32)
    return a1 * b1 + (t >> _32) + (u >> _32)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's shortest decimal (digits, exponent) of positive finite
    doubles given by their bits: digits * 10^exponent reads back as the
    double, has as few digits as any decimal that does, and of those is
    the closest to the double, ties to even."""
    tables = _exponent_tables()
    b = (bits >> _52).astype(np.intp)
    mantissa = bits & _MANTISSA
    m = (mantissa | tables["hidden"][b]) << _1  # 2 m2 < 2^54
    mul0 = tables["mul0"][b]
    mul1 = tables["mul1"][b]
    shift = tables["shift"][b]

    # X = 2 m2 * (mul1 * 2^64 + mul0) = (hi, mid, lo); vr = X >> (j - 1),
    # vp = (X + mul) >> (j - 1) and vm = (X - mul) >> (j - 1).
    a0 = m & _LOW32
    a1 = m >> _32
    lo = m * mul0
    t = _mul_high(a0, a1, mul0)
    mid = t + m * mul1
    hi = _mul_high(a0, a1, mul1) + (mid < t)
    back = _64 - shift
    vr = (hi << back) | (mid >> shift)
    mid_p = mid + mul1 + (lo > ~mul0)
    vp = ((hi + (mid_p < mid)) << back) | (mid_p >> shift)
    mid_m = mid - mul1 - (lo < mul0)
    vm = ((hi - (mid_m > mid)) << back) | (mid_m >> shift)
    # A power of two has its lower bound at a quarter ulp:
    # vm = (2X - mul) >> j.
    pow2 = np.flatnonzero((mantissa == 0) & (b > 1))
    if pow2.size:
        lo2 = lo[pow2] << _1
        mid2 = (mid[pow2] << _1) | (lo[pow2] >> _63)
        hi2 = (hi[pow2] << _1) | (mid[pow2] >> _63)
        mid2_m = mid2 - mul1[pow2] - (lo2 < mul0[pow2])
        s = shift[pow2] + _1
        vm[pow2] = ((hi2 - (mid2_m > mid2)) << (_64 - s)) | (mid2_m >> s)

    # Which of vr and vm are exact with zeros cut off (Ryu's
    # vrIsTrailingZeros and vmIsTrailingZeros), and vp's correction.
    vr_tz = (m & tables["tz_mask"][b]) == 0
    vm_tz = np.zeros(bits.size, dtype=bool)
    exact = np.flatnonzero(tables["exact"][b])
    if exact.size:
        be = b[exact]
        mv = m[exact] << _1
        odd = (mv & _U64(4)) != 0
        mm_shift = ((mantissa[exact] != 0) | (be <= 1)).astype(np.uint64)
        pow5 = _U64(5) ** np.minimum(tables["q"][be], 21).astype(np.uint64)
        by5 = mv % _U64(5) == 0
        up = tables["up"][be]
        vr_tz[exact] = ~up | (by5 & (mv % pow5 == 0))
        vm_tz[exact] = ~odd & np.where(up, ~by5 & ((mv - _1 - mm_shift) % pow5 == 0),
                                       mm_shift == 1)
        vp[exact] -= (odd & (~up | (~by5 & ((mv + _U64(2)) % pow5 == 0)))).astype(np.uint64)

    # Step 4: cut digits while vp and vm still differ above them, then
    # while vm is exact and ends in 0. Ryu tracks each cut digit; the
    # flags it ends with are whether vm lost only zeros and whether vr
    # lost only zeros below its last cut digit.
    vr0, vm0 = vr, vm
    vr, vp, vm, last, removed = _cut(vr, vp, vm, within=True)
    track = bool(vr_tz.any() or vm_tz.any())
    if track:
        vm_tz &= vm0 % _POW10[removed] == 0
        below = np.flatnonzero(vm_tz)
        if below.size:
            sub = _cut(vr[below], vp[below], vm[below], within=False,
                       last=last[below], removed=removed[below])
            for a, cut in zip((vr, vp, vm, last, removed), sub):
                a[below] = cut
        vr_tz &= vr0 % _POW10[np.maximum(removed - 1, 0)] == 0
    round_up = last >= 5
    if track:
        round_up &= ~(vr_tz & (last == 5) & ((vr & _1) == 0))  # ...50..0: to even
        round_up |= (vr == vm) & ~(vm_tz & ((m & _U64(2)) == 0))
    else:
        round_up |= vr == vm
    return vr + round_up, tables["e10"][b] + removed


def _cut(vr, vp, vm, *, within, last=None, removed=None):
    """Ryu's digit-removal loops on all elements at once: returns (vr,
    vp, vm, last, removed) after cutting `removed` more digits, `last`
    the last one cut.

    within: cut while vp // 10 > vm // 10 (the first loop); else cut while
    vm % 10 == 0 (the second, for an exact vm). Either condition holds
    for the first r cuts and fails after, so cutting 16, 8, 4, 2 and 1
    digits where it still holds ends where the loop does."""
    if last is None:
        last = np.zeros(vr.size, dtype=np.uint64)
        removed = np.zeros(vr.size, dtype=np.intp)
    steps = (16, 8, 4, 2, 1)
    if within and not (vp // _POW10[4] > vm // _POW10[4]).any():
        steps = (2, 1)  # nothing can lose 4 digits, so nothing more
    for step in steps:
        scale = _POW10[step]
        vm_cut = vm // scale
        if within:
            vp_cut = vp // scale
            go = vp_cut > vm_cut
        else:
            go = vm_cut * scale == vm
        if not go.any():
            continue
        if not within:
            vp_cut = vp // scale
        vr_cut = vr // scale
        top = (vr - vr_cut * scale) // _POW10[step - 1]
        stay = go.astype(np.uint64) - _1  # all ones where the digits stay
        last = top ^ ((last ^ top) & stay)  # np.where is slower on mixed masks
        vr = vr_cut ^ ((vr ^ vr_cut) & stay)
        vp = vp_cut ^ ((vp ^ vp_cut) & stay)
        vm = vm_cut ^ ((vm ^ vm_cut) & stay)
        removed += go * step
    return vr, vp, vm, last, removed


def _cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three words of each value's cell: repr(x[i]) in little-endian
    bytes, NUL-padded to 24."""
    tables = _layout_tables()
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    magnitude = bits & _MAGNITUDE
    f = magnitude.view(np.float64)
    # 0 and the integers below 2^53 are their own digits, as in Ryu's
    # small-integer case: trailing zeros print alike in digits or in the
    # exponent, as 1200.0. Ryu takes the rest but inf and nan, which get
    # fixed cells below.
    with np.errstate(invalid="ignore"):  # signaling nans
        whole = (f < 2.0**53) & (np.trunc(f) == f)
    ryu = ~whole & (magnitude < _EXP_INF)
    if ryu.all():
        digits, exponent = _shortest(magnitude)
    else:
        digits = np.where(whole, f, 0.0).astype(np.uint64)
        exponent = np.zeros(f.size, dtype=np.int64)
        at = np.flatnonzero(ryu)
        if at.size:
            digits[at], exponent[at] = _shortest(magnitude[at])

    count = _digit_count(digits, tables)
    point = exponent + count - 1
    d0, d1, d2 = _digit_words(digits, count, tables)

    # Lead, '.', length: see _layout_tables.
    sign = (bits >> _63).astype(np.intp)
    key = np.minimum(np.maximum(point + 5, 0), 21) + 22 * sign
    shift = tables["shift"][key]
    back = _64 - shift
    x0 = (d0 << shift) | tables["lead"][key]
    x1 = (d1 << shift) | (d0 >> back)
    x2 = (d2 << shift) | (d1 >> back)
    k0 = x0 & tables["keep0"][key]
    k1 = x1 & tables["keep1"][key]
    k2 = x2 & tables["keep2"][key]
    h0 = x0 ^ k0
    h1 = x1 ^ k1
    length = np.maximum(count + tables["grow"][key], tables["least"][key])
    w0 = (k0 | (h0 << _8) | tables["dot0"][key]) & tables["mask0"][length]
    w1 = (k1 | (h1 << _8) | (h0 >> _56) | tables["dot1"][key]) & tables["mask1"][length]
    w2 = (k2 | ((x2 ^ k2) << _8) | (h1 >> _56) | tables["dot2"][key]) & tables["mask2"][length]

    sci = np.flatnonzero((point < -4) | (point > 15))
    if sci.size:  # d[.ddd] then 'e±XX' at byte `end`
        c = count[sci]
        end = sign[sci] + c + (c > 1)
        suffix = tables["suffix"][point[sci] + _EXPONENT_BIAS]
        at = end.astype(np.uint64) * _8
        for w, word in enumerate((w0, w1, w2)):
            base = _U64(64 * w)
            part = np.where(at >= base, suffix << (at - base), suffix >> (base - at))
            word[sci] = (word[sci] & tables[f"mask{w}"][end]) | part
    nonfinite = np.flatnonzero(magnitude >= _EXP_INF)
    if nonfinite.size:
        kind = np.where(magnitude[nonfinite] > _EXP_INF, 2, sign[nonfinite])
        for w, word in enumerate((w0, w1, w2)):
            word[nonfinite] = tables[f"fixed{w}"][kind]
    return w0, w1, w2


def _digit_count(v: np.ndarray, tables: dict) -> np.ndarray:
    """The number of decimal digits of each 0 <= v < 10^17 (1 for 0),
    from the binary exponent of v as a double."""
    e = (v.astype(np.float64).view(np.uint64) >> _52).astype(np.intp)
    return tables["digits_below"][e] + (v >= tables["power_above"][e])


def _digit_words(v: np.ndarray, count: np.ndarray, tables: dict) -> tuple:
    """The three words holding the ASCII of v * 10^(17 - count), for v of
    count digits: its digits, then '0's to 17 bytes."""
    quad = tables["quad"]
    v = v * _POW10[17 - count]
    high = v // _U64(10**9)
    low = v - high * _U64(10**9)
    tail = low // _U64(10)
    high_top = high // _U64(10**4)
    tail_top = tail // _U64(10**4)
    return (
        quad[high_top] | (quad[high - high_top * _U64(10**4)] << _32),
        quad[tail_top] | (quad[tail - tail_top * _U64(10**4)] << _32),
        low - tail * _U64(10) + _U64(ord("0")),
    )


def _index_words(first: int, count: int) -> np.ndarray:
    """(count, k) words: first..first+count-1 in decimal, NUL-padded, and
    a ',' in the last byte of the k words."""
    tables = _layout_tables()
    n = np.arange(first, first + count, dtype=np.uint64)
    digits = _digit_count(n, tables)
    k = (len(str(first + count - 1)) + 8) // 8  # its digits and the ','
    words = np.stack(_digit_words(n, digits, tables)[:k], axis=1)
    for j in range(k):
        words[:, j] &= tables[f"mask{j}"][digits]
    words[:, -1] |= _U64(ord(",") << 56)
    return words


def rows(values: np.ndarray, first_index: int | None = None) -> bytes:
    """CSV lines of the repr of each entry of a 2-D float64 array:
    'a,b,...\\n' per row, led by the row's index 'n,' counting from
    first_index when that is given (indices below 10^17). Byte for byte
    equal to joining map(repr, ...)."""
    values = np.asarray(values, dtype=np.float64)
    n_rows, n_cols = values.shape
    if first_index is not None and not 0 <= first_index <= 10**17 - n_rows:
        raise ValueError(f"row indices must lie in [0, 10^17), got first_index={first_index}")
    block = max(1, _BLOCK // max(n_cols, 1))
    parts = []
    for lo in range(0, n_rows, block):
        first = None if first_index is None else first_index + lo
        parts.append(_rows_block(values[lo:lo + block], first))
    return b"".join(parts)


def _rows_block(values: np.ndarray, first_index: int | None) -> bytes:
    """rows of one block: the index words and cells of each row go into
    one word matrix, each cell's separator in its last byte, and the
    matrix is written out without its NULs."""
    n_rows, n_cols = values.shape
    w0, w1, w2 = _cells(values.reshape(-1))
    # A cell's 24th byte is free unless its repr is 24 bytes long; then
    # every cell of the block gets a fourth word for the separator.
    width = 3 if not (w2 >> _56).any() else 4
    lead = 0 if first_index is None else _index_words(first_index, n_rows)
    k = 0 if first_index is None else lead.shape[1]
    table = np.zeros((n_rows, k + n_cols * width), dtype=np.uint64)
    table[:, :k] = lead
    slots = table[:, k:].reshape(n_rows, n_cols, width)
    for w, word in enumerate((w0, w1, w2)):
        slots[:, :, w] = word.reshape(n_rows, n_cols)
    separators = np.full(n_cols, ord(",") << 56, dtype=np.uint64)
    separators[-1] = ord("\n") << 56
    slots[:, :, width - 1] |= separators
    flat = table.astype("<u8", copy=False).view(np.uint8).reshape(-1)
    return flat[flat != 0].tobytes()


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def write_rows(f, columns: tuple[np.ndarray, ...], *, index: bool) -> None:
    """Rows 'repr(c[n]),...', led by 'n,' where index is true, as ASCII
    bytes into the binary file f, in chunks of CSV_CHUNK_ROWS, so that
    only one chunk's text is alive at a time in each process. Rows end in
    a bare LF on every platform.

    Formatting is a fair share of a run, so the rows are split on chunk
    boundaries into one contiguous part per usable CPU. The caller
    formats part 0 straight into f; each later part is formatted by a
    forked child into an unlinked temporary file, which the caller
    appends to f in order once every child has exited.
    """
    length = columns[0].size
    chunks = (length + CSV_CHUNK_ROWS - 1) // CSV_CHUNK_ROWS
    parts = max(1, min(_usable_cpus(), chunks)) if hasattr(os, "fork") else 1
    cuts = [min(length, CSV_CHUNK_ROWS * (chunks * i // parts)) for i in range(parts + 1)]
    with contextlib.ExitStack() as stack:
        children = []
        try:
            for start, stop in zip(cuts[1:], cuts[2:]):
                tmp = stack.enter_context(tempfile.TemporaryFile("w+b"))
                children.append((_fork_rows(tmp, columns, start, stop, index), tmp, start, stop))
            _format_rows(f, columns, cuts[0], cuts[1], index)
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, *_ in children]
        for code, (_, tmp, start, stop) in zip(codes, children):
            if code != 0:
                raise RuntimeError(
                    f"formatting CSV rows {start}..{stop - 1} failed in a child "
                    f"process (exit code {code})"
                )
            tmp.seek(0)
            shutil.copyfileobj(tmp, f)


def _fork_rows(tmp, columns: tuple[np.ndarray, ...], start: int, stop: int, index: bool) -> int:
    """Fork a child that formats rows start..stop-1 into tmp; its pid."""
    with warnings.catch_warnings():
        # Python >= 3.12 warns when a multi-threaded process forks. The
        # `gmt` entry holds OpenBLAS to one thread, so a `gmt` run forks
        # with no other thread; an in-process caller may still run
        # numpy's OpenBLAS pool or threads of its own. OpenBLAS shuts its
        # pool down around fork through pthread_atfork, and the child
        # only formats bytes and writes one file.
        warnings.filterwarnings(
            "ignore", r"This process .* is multi-threaded", DeprecationWarning
        )
        pid = os.fork()
    if pid:
        return pid
    # The child leaves through os._exit, on every path: it must neither
    # unwind into the caller's stack nor flush the parent's buffers.
    code = 1
    try:
        _format_rows(tmp, columns, start, stop, index)
        tmp.flush()
        code = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _format_rows(f, columns: tuple[np.ndarray, ...], start: int, stop: int, index: bool) -> None:
    """Rows start..stop-1 one chunk at a time, each made by rows in one piece."""
    for lo in range(start, stop, CSV_CHUNK_ROWS):
        table = np.column_stack([c[lo:min(lo + CSV_CHUNK_ROWS, stop)] for c in columns])
        f.write(rows(table, first_index=lo if index else None))
