"""``repr`` of many float64 values at once, byte for byte.

``repr_many(values)`` returns exactly ``list(map(repr, values.tolist()))``.
Finite normal values take Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020), in the same output class as Ryu: of the shortest
decimals that round to the value it picks the closest, breaking a tie to the
even digit, which is what ``repr`` prints. Every step runs on whole uint64
arrays, a chunk at a time:

- the decimal exponent k = floor(q log10 2), or floor(log10(3/4 2^q)) where
  the significand c is 2^52 and the value below is closer, by integer
  multiply-and-shift;
- one 126-bit table entry g, close to 10^-k over a power of two, times 4c
  and its two interval ends, as 64x64-bit products built from 32-bit limbs;
- the shorter decimal s/10 where exactly one of its neighbours lies in the
  rounding interval, else s or s + 1, the closer, ties to even;
- the digits through a table of 4-digit strings, laid out the way ``repr``
  does: decimal exponents -4..15 positionally, with ``.0`` on integers,
  others as ``d.ddde±XX`` with at least two exponent digits.

Zeros, subnormals, infinities and NaN go through ``repr`` itself. The tables
are built on first use, not at import.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# Values per pass through the vectorized path; bounds the temporaries to
# about 2 MB. The benchmark's trajectory workload ran 7% slower at 2048.
CHUNK = 4096

_K_MIN, _K_MAX = -324, 292  # decimal exponents of finite normal doubles
_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_MASK63 = _U((1 << 63) - 1)

# Bytes of the per-value source row that a layout indexes: 20 digit
# characters (two leading '0', then the 18-digit significand, left aligned),
# 4 exponent characters ('0' and three digits), then constants and padding.
_ROW = 32
_DIGIT0 = 2
_EXP = 20
_DOT, _ZERO, _MINUS, _E, _PLUS, _PAD = range(24, 30)
_WIDTH = 24  # longest repr of a normal double: -1.2345678901234567e-308
_CODES = 24  # 20 positional decimal points (-3..16), then 4 exponent forms


def _layout(neg: bool, n: int, code: int) -> list[int]:
    """Source columns of the text for a sign, a digit count and a layout code."""
    digits = [_DIGIT0 + j for j in range(n)]
    out = [_MINUS] if neg else []
    if code < 20:
        point = code - 3  # digits before the decimal point
        if point <= 0:
            out += [_ZERO, _DOT] + [_ZERO] * -point + digits
        elif point < n:
            out += digits[:point] + [_DOT] + digits[point:]
        else:
            out += digits + [_ZERO] * (point - n) + [_DOT, _ZERO]
    else:
        negative_exp, three = divmod(code - 20, 2)
        out += digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
        out += [_E, _MINUS if negative_exp else _PLUS] + list(range(_EXP + 2 - three, _EXP + 4))
    return out + [_PAD] * (_WIDTH - len(out))


@cache
def _tables() -> dict:
    """The g table of Schubfach, the layouts and the digit tables (about 80 kB)."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        e = -k
        r = ((e * 913124641741) >> 38) - 125  # floor(e log2 10) - 125
        num = 10 ** max(e, 0) << max(-r, 0)
        den = 10 ** max(-e, 0) << max(r, 0)
        g = num // den + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    layouts = np.full((2 * 18 * _CODES, _WIDTH), _PAD, dtype=np.uint8)
    for row, (neg, n, code) in enumerate(np.ndindex(2, 18, _CODES)):
        if n:
            layouts[row] = _layout(bool(neg), n, code)
    i = np.arange(10000, dtype=np.uint16)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8) + ord("0")
    return {
        "g1": np.array(g1, dtype=np.uint64),
        "g0": np.array(g0, dtype=np.uint64),
        "layouts": layouts,
        # "%04d" of 0..9999, 4 characters in one uint32, so a gather moves a whole chunk of digits
        "four": digits.view(np.uint32).ravel(),
        "trailing": np.where(i == 0, 4, sum((i % 10**j == 0).astype(np.int8) for j in (1, 2, 3))).astype(np.int8),
        "constants": np.frombuffer(b".0-e+\0\0\0", dtype=np.uint32),
        "pow10": np.array([10**i for i in range(19)], dtype=np.uint64),
    }


def _mul_high(a0, a1, b0, b1):
    """High 64 bits of the 128-bit products of a = a1 2^32 + a0 and b = b1 2^32 + b0 (no sum overflows)."""
    t = a1 * b0 + ((a0 * b0) >> 32)
    w = a0 * b1 + (t & _MASK32)
    return a1 * b1 + (t >> 32) + (w >> 32)


def _round_odd(g, cp):
    """floor(g cp / 2^127), with its lowest bit set if the division is inexact (``rop``)."""
    g1, g1_0, g1_1, g0_0, g0_1 = g
    cp0, cp1 = cp & _MASK32, cp >> 32
    x1 = _mul_high(g0_0, g0_1, cp0, cp1)
    y1 = _mul_high(g1_0, g1_1, cp0, cp1)
    z = ((g1 * cp) >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _MASK63) + _MASK63) >> 63)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decimal significand d and exponent k with d 10^k the repr value of each normal double."""
    t = _tables()
    biased = ((bits >> 52) & _U(0x7FF)).astype(np.int64)
    fraction = bits & _U((1 << 52) - 1)
    c = fraction | _U(1 << 52)
    q = biased - 1075
    # c = 2^52 above the smallest normal: the interval below is half as wide
    irregular = (fraction == 0) & (biased > 1)
    k = np.where(irregular, q * 661971961083 - 274743187321, q * 661971961083) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)  # 1..4, so 4c 2^h < 2^59
    i = k - _K_MIN
    g1, g0 = t["g1"][i], t["g0"][i]
    g = (g1, g1 & _MASK32, g1 >> 32, g0 & _MASK32, g0 >> 32)
    out = c & _U(1)
    cb = c << _U(2)
    vb = _round_odd(g, cb << h)
    vbl = _round_odd(g, (cb - _U(1) - (~irregular).astype(np.uint64)) << h)
    vbr = _round_odd(g, (cb + _U(2)) << h)
    s = vb >> _U(2)
    # one digit shorter: s' = 10 floor(s / 10) or s' + 10, if exactly one is in the interval
    sp10 = (s // _U(10)) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = (tp10 << _U(2)) + out <= vbr
    short = (upin != wpin) & (s >= _U(100))
    # full length: s or s + 1, whichever is in the interval, else the closer, ties to even
    uin = vbl + out <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) + out <= vbr
    mid = (s << _U(2)) + _U(2)
    take_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0)))
    d = np.where(short, np.where(upin, sp10, tp10), np.where(take_s, s, s + _U(1)))
    return d, k


def _format_normal(values: np.ndarray) -> list[str]:
    """repr of finite normal float64 values."""
    t = _tables()
    bits = values.view(np.uint64)
    d, k = _shortest(bits)
    pow10 = t["pow10"]
    ndig = np.searchsorted(pow10, d, side="right")  # decimal digits of d
    aligned = d * pow10[18 - ndig]  # 18 digits, left aligned
    top = aligned // pow10[16]
    rest = aligned - top * pow10[16]
    high = rest // pow10[8]
    low = rest - high * pow10[8]
    chunks = np.empty((len(d), 5), dtype=np.intp)
    chunks[:, 0] = top
    for j, part in ((1, high), (3, low)):
        quotient = part // pow10[4]
        chunks[:, j] = quotient
        chunks[:, j + 1] = part - quotient * pow10[4]
    # trailing zeros of the 18 digits: whole zero chunks after the last nonzero one, then its own
    last = 4 - (chunks[:, ::-1] != 0).argmax(axis=1)
    n = 18 - 4 * (4 - last) - t["trailing"].take(chunks[np.arange(len(d)), last])
    point = ndig + k  # digits before the decimal point
    exponent = point - 1
    code = np.where(
        (exponent >= -4) & (exponent <= 15),
        point + 3,
        20 + 2 * (exponent < 0) + (np.abs(exponent) >= 100),
    )
    source = np.empty((len(values), _ROW // 4), dtype=np.uint32)
    source[:, :5] = t["four"].take(chunks)
    source[:, 5] = t["four"].take(np.abs(exponent))
    source[:, 6:] = t["constants"]
    key = ((bits >> _U(63)).astype(np.intp) * 18 + n) * _CODES + code
    index = np.add(t["layouts"].take(key, axis=0), np.arange(0, len(values) * _ROW, _ROW)[:, None], dtype=np.intp)
    text = source.view(np.uint8).ravel().take(index)
    return text.astype(np.uint32).view(f"U{_WIDTH}").ravel().tolist()


def repr_many(values: np.ndarray) -> list[str]:
    """``list(map(repr, values.tolist()))`` for a 1-D float64 array, computed in numpy."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    cells: list[str] = []
    for start in range(0, len(values), CHUNK):
        chunk = values[start:start + CHUNK]
        biased = (chunk.view(np.uint64) >> _U(52)) & _U(0x7FF)
        normal = (biased != 0) & (biased != 0x7FF)
        if normal.all():
            cells += _format_normal(chunk)
            continue
        text = np.empty(len(chunk), dtype=object)
        text[normal] = _format_normal(chunk[normal])
        text[~normal] = list(map(repr, chunk[~normal].tolist()))
        cells += text.tolist()
    return cells
