"""``repr`` of many float64 values at once, byte for byte.

``repr_many(values)`` returns an ``(n, WIDTH)`` uint8 array whose row i holds
the ASCII bytes of ``repr(values[i])``, padded with NUL bytes: exactly the
rows ``repr_each`` builds by calling ``repr`` on every value. Callers lay the
rows into larger byte buffers and drop the padding with one mask, so no
Python string is made per value.
Every row is laid out from the nearest-to-even path of Dragonbox (J. Jeon,
"Dragonbox: A New Floating-Point Binary-to-Decimal Conversion Algorithm",
2020): of the shortest decimals that round to the value it picks the
closest, breaking a tie to the even digit, which is what ``repr`` prints.
Every step runs on whole uint64 arrays, a chunk at a time:

- by table lookup on the biased exponent: the decimal exponent
  k = floor(e log10 2) of the value c 2^e, a shift beta and the two words
  of phi = ceil(10^(2-k) 2^(127 - floor((2-k) log2 10)));
- one 64x128-bit product, built from 32-bit limbs, of (2c + 1) 2^beta and
  phi: zi, the right end of the rounding interval times 10^(2-k); the
  interval's width on that scale, delta, lies in [100, 1000);
- zi // 1000 if that lies in the interval, else the closest decimal one
  digit longer, from the distance in hundredths;
- the digits through a table of 4-digit strings, laid out the way ``repr``
  does: decimal exponents -4..15 positionally, with ``.0`` on integers,
  others as ``d.ddde±XX`` with at least two exponent digits.

The one product decides a row unless zi % 1000 is 0 (an odd c may exclude the
right end) or delta (the left end decides), or the distance is a whole
number of hundredths (the digit may be one less, or a tie goes to the even
digit): Dragonbox settles those with the parity of a second product. Those
rows, about 0.9% of random normal values, go through ``repr`` itself
(``repr_each``), and so do the rows the path does not cover: zeros,
subnormals, infinities, NaN and the powers of two, whose interval below is
half as wide. Every other row holds exactly the digits Dragonbox computes,
so each row equals ``repr``. The layout runs on every row of a chunk and
stays in range on the rows ``repr`` overwrites, since zi < 2^53 10^3 keeps
the significand below 10^17.

Dragonbox replaced Schubfach (R. Giulietti, 2020), which took three
round-to-odd products a value; it is the one shortest-digit algorithm here.
The tables are built on first use, not at import.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# Values per pass through the vectorized path; bounds the temporaries to
# about 2 MB. On the values the benchmark's trajectory workload formats
# (seed 7, 760k a pass, in-process on a 2-vCPU KVM guest), three runs took a
# median 221-272 ms a pass at 4096, 247-316 at 2048 and 321-347 at 8192;
# grid_sweep's 177k took 58-67 ms at 4096 and 50-57 at 8192.
CHUNK = 4096

_K_MIN, _K_MAX = -292, 326  # decimal exponents of the table: 2 - k for every biased exponent
_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_FRACTION = _U((1 << 52) - 1)

# Bytes of the per-value source row that a layout indexes: 20 digit
# characters (two leading '0', then the 18-digit significand, left aligned),
# 4 exponent characters ('0' and three digits), then constants and padding.
_ROW = 32
_DIGIT0 = 2
_EXP = 20
_DOT, _ZERO, _MINUS, _E, _PLUS, _PAD = range(24, 30)
WIDTH = 24  # longest repr of any double: -1.2345678901234567e-308
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
    return out + [_PAD] * (WIDTH - len(out))


def _floor_log2_pow10(k):
    """floor(k log2 10), exact for |k| <= 1233."""
    return (k * 1741647) >> 19


@cache
def _tables() -> dict:
    """The phi table of Dragonbox, the layouts and the digit tables (about 160 kB)."""
    phi = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 127 - _floor_log2_pow10(k)
        num = 10 ** max(k, 0) << max(shift, 0)
        den = 10 ** max(-k, 0) << max(-shift, 0)
        phi.append(-(-num // den))  # ceil(10^k 2^shift), in [2^127, 2^128)
    phi_high = np.array([p >> 64 for p in phi], dtype=np.uint64)
    phi_low = np.array([p & ((1 << 64) - 1) for p in phi], dtype=np.uint64)
    # what _shortest reads per value, by biased exponent: the result's decimal exponent k (Dragonbox's
    # minus_k is k - 2), beta, the words of phi at 2 - k and the scaled interval width delta
    e = np.arange(2048) - 1075
    k = (e * 315653) >> 20  # floor(e log10 2), exact for |e| <= 2620
    beta = (e + _floor_log2_pow10(2 - k)).astype(np.uint64)  # 6..9
    high = phi_high[2 - k - _K_MIN]
    layouts = np.full((2 * 18 * _CODES, WIDTH), _PAD, dtype=np.uint8)
    for row, (neg, n, code) in enumerate(np.ndindex(2, 18, _CODES)):
        if n:
            layouts[row] = _layout(bool(neg), n, code)
    i = np.arange(10000, dtype=np.uint16)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8) + ord("0")
    return {
        "k": k,
        "beta": beta,
        "high": high,
        "low": phi_low[2 - k - _K_MIN],
        "delta": high >> (_U(63) - beta),  # 100 <= delta < 1000
        "layouts": layouts,
        # "%04d" of 0..9999, 4 characters in one uint32, so a gather moves a whole chunk of digits
        "four": digits.view(np.uint32).ravel(),
        "trailing": np.where(i == 0, 4, sum((i % 10**j == 0).astype(np.int8) for j in (1, 2, 3))).astype(np.int8),
        "constants": np.frombuffer(b".0-e+\0\0\0", dtype=np.uint32),
        "pow10": np.array([10**i for i in range(19)], dtype=np.uint64),
    }


def _mul_high(a0, a1, b):
    """High 64 bits of the 128-bit products of a = a1 2^32 + a0 and b, from 32-bit limbs (no sum overflows)."""
    b0, b1 = b & _MASK32, b >> _U(32)
    t = a1 * b0 + ((a0 * b0) >> _U(32))
    w = a0 * b1 + (t & _MASK32)
    return a1 * b1 + (t >> _U(32)) + (w >> _U(32))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decimal significand d and exponent k with d 10^k the repr value of each normal double
    whose c is not 2^52, and which rows the one product leaves undecided."""
    t = _tables()
    biased = (bits.view(np.int64) >> 52) & 0x7FF
    high, low, beta, delta = (t[name].take(biased) for name in ("high", "low", "beta", "delta"))
    # zi = floor((c + 1/2) 2^e 10^(2 - k)), the scaled right end of the rounding interval, is the
    # high word of the one 64x128-bit product u phi
    u = (((bits & _FRACTION) << _U(1)) | _U((1 << 53) + 1)) << beta
    u0, u1 = u & _MASK32, u >> _U(32)
    product_low = u * high
    middle = product_low + _mul_high(u0, u1, low)
    zi = _mul_high(u0, u1, high) + (middle < product_low)
    s = zi // _U(1000)
    r = zi - s * _U(1000)
    big = r < delta  # s 10^(k + 1) lies in the interval
    # else one digit more: zi less its distance to the centre, in hundredths, rounded
    dist = r - (delta >> _U(1)) + _U(50)
    q = dist // _U(100)
    d = s * _U(10) + np.where(big, _U(0), q)
    # at r = 0 an odd c may exclude the right end, at r = delta the left end decides, and at a
    # whole number of hundredths the digit may be one less or a tie: each needs a lower product
    undecided = (r == 0) | (r == delta) | (~big & (q * _U(100) == dist))
    return d, t["k"].take(biased), undecided


def _format(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Lay out ``_shortest``'s decimal of each float64 bit pattern into ``out``, an (n, WIDTH) uint8
    array; return the rows it leaves undecided."""
    t = _tables()
    d, k, undecided = _shortest(bits)
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
    source = np.empty((len(bits), _ROW // 4), dtype=np.uint32)
    source[:, :5] = t["four"].take(chunks)
    source[:, 5] = t["four"].take(np.abs(exponent))
    source[:, 6:] = t["constants"]
    key = ((bits >> _U(63)).astype(np.intp) * 18 + n) * _CODES + code
    index = np.add(t["layouts"].take(key, axis=0), np.arange(0, len(bits) * _ROW, _ROW)[:, None], dtype=np.intp)
    source.view(np.uint8).ravel().take(index, out=out, mode="clip")
    return undecided


def repr_each(values: np.ndarray) -> np.ndarray:
    """The rows of ``repr_many``, built by calling ``repr`` on every value."""
    text = np.array(list(map(repr, np.asarray(values, dtype=np.float64).tolist())), dtype=f"S{WIDTH}")
    return text.view(np.uint8).reshape(len(text), WIDTH)


def repr_many(values: np.ndarray) -> np.ndarray:
    """``repr`` of each value of a 1-D float64 array as a NUL-padded (n, WIDTH) uint8 row, computed in numpy."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    rows = np.empty((len(values), WIDTH), dtype=np.uint8)
    for start in range(0, len(values), CHUNK):
        chunk = values[start:start + CHUNK]
        out = rows[start:start + CHUNK]
        bits = chunk.view(np.uint64)
        biased = (bits >> _U(52)) & _U(0x7FF)
        # zeros, subnormals, infinities, NaN and powers of two (c = 2^52) lie outside the product's path
        rare = (biased == 0) | (biased == 0x7FF) | ((bits & _FRACTION) == 0)
        fallback = np.flatnonzero(rare | _format(bits, out))
        out[fallback] = repr_each(chunk[fallback])
    return rows
