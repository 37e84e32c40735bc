"""``repr`` of many float64 values at once, byte for byte.

``repr_many(values)`` returns an ``(n, WIDTH)`` uint8 array whose row i holds
the ASCII bytes of ``repr(values[i])``, padded with NUL bytes: exactly the
rows ``repr_each`` builds by calling ``repr`` on every value. Callers lay the
rows into larger byte buffers and drop the padding with one mask, so no
Python string is made per value.
Finite normal values take the nearest-to-even path of Dragonbox (J. Jeon,
"Dragonbox: A New Floating-Point Binary-to-Decimal Conversion Algorithm",
2020): of the shortest decimals that round to the value it picks the
closest, breaking a tie to the even digit, which is what ``repr`` prints.
Every step runs on whole uint64 arrays, a chunk at a time:

- by table lookup on the biased exponent: the decimal exponent
  k = floor(e log10 2) of the value c 2^e, a shift beta and the two words
  of phi = ceil(10^(2-k) 2^(127 - floor((2-k) log2 10)));
- one 64x128-bit product, built from 32-bit limbs, of (2c + 1) 2^beta and
  phi: zi, the right end of the rounding interval times 10^(2-k), and
  whether zi is an integer; the interval's width on that scale, delta, lies
  in [100, 1000);
- zi // 1000 if that lies in the interval, whose right end an odd c
  excludes; else the closest decimal one digit longer, from the distance in
  hundredths;
- two rare kinds of row also need the parity of a lower product, on those
  rows alone: zi % 1000 = delta, where the left end decides, and a
  distance of whole hundredths, where the digit may be one less or a tie
  goes to the even digit. c = 2^52 above the smallest normal, whose interval
  below is half as wide, takes Dragonbox's shorter-interval formulas;
- the digits through a table of 4-digit strings, laid out the way ``repr``
  does: decimal exponents -4..15 positionally, with ``.0`` on integers,
  others as ``d.ddde±XX`` with at least two exponent digits.

Dragonbox replaced Schubfach (R. Giulietti, 2020), which took three
round-to-odd products a value; it is the one shortest-digit algorithm here.

Zeros, subnormals, infinities and NaN go through ``repr`` itself, encoded
into the same rows. The tables are built on first use, not at import.
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

_K_MIN, _K_MAX = -292, 326  # decimal exponents of the table, all a normal double needs
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
        "phi_high": phi_high,
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


def _mul_parity(two_f, high, low, beta):
    """Parity of floor(two_f phi 2^beta / 2^128), and whether it is exact (Dragonbox's ``compute_mul_parity``)."""
    product_low = two_f * low
    product_high = two_f * high + _mul_high(two_f & _MASK32, two_f >> _U(32), low)
    parity = ((product_high >> (_U(64) - beta)) & _U(1)).astype(bool)
    exact = ((product_high << beta) | (product_low >> (_U(64) - beta))) == 0
    return parity, exact


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decimal significand d and exponent k with d 10^k the repr value of each normal double."""
    t = _tables()
    biased = (bits.view(np.int64) >> 52) & 0x7FF
    high, low, beta, delta = (t[name].take(biased) for name in ("high", "low", "beta", "delta"))
    fraction = bits & _FRACTION
    # zi = floor((c + 1/2) 2^e 10^(2 - k)), the scaled right end of the rounding interval, is the
    # high word of the one 64x128-bit product u phi; the middle word is 0 where zi is an integer
    u = ((fraction << _U(1)) | _U((1 << 53) + 1)) << beta
    u0, u1 = u & _MASK32, u >> _U(32)
    product_low = u * high
    middle = product_low + _mul_high(u0, u1, low)
    zi = _mul_high(u0, u1, high) + (middle < product_low)
    s = zi // _U(1000)
    r = zi - s * _U(1000)
    big = r < delta  # s 10^(k + 1) lies in the interval
    edge = np.flatnonzero((r == 0) | (r == delta))
    if len(edge):
        # r = 0 on an exact zi is the right end, excluded for an odd c: s - 1 takes the small divisor
        # with r = 1000; at r = delta the left end decides, from the parity of (2c - 1) phi
        fraction_edge, r_edge = fraction[edge], r[edge]
        odd = (fraction_edge & _U(1)).astype(bool)
        excluded = (r_edge == 0) & (middle[edge] == 0) & odd
        parity, exact = _mul_parity(
            (fraction_edge << _U(1)) + _U((1 << 53) - 1), high[edge], low[edge], beta[edge]
        )
        big[edge] = np.where(r_edge == delta[edge], parity | (exact & ~odd), ~excluded)
        s[edge] -= excluded
        r[edge] += excluded * _U(1000)
    # else one digit more: zi less its distance to the centre, in hundredths, rounded
    dist = r - (delta >> _U(1)) + _U(50)
    q = dist // _U(100)
    d = s * _U(10) + np.where(big, _U(0), q)
    fix = np.flatnonzero(q * _U(100) == dist)
    fix = fix[~big[fix]]
    if len(fix):
        # a whole number of hundredths: the parity of 2c phi tells whether the true distance is one
        # less, and whether the centre is an exact tie, which goes to the even digit
        parity, exact = _mul_parity((fraction[fix] << _U(1)) | _U(1 << 53), high[fix], low[fix], beta[fix])
        d_fix = d[fix]
        approx = ((dist[fix] ^ _U(50)) & _U(1)).astype(bool)
        d[fix] = d_fix - ((parity != approx) | (exact & (d_fix & _U(1)).astype(bool)))
    k = t["k"].take(biased)
    shorter = np.flatnonzero(fraction == 0)
    shorter = shorter[biased[shorter] > 1]
    if len(shorter):
        d[shorter], k[shorter] = _shortest_shorter(biased[shorter] - 1075)
    return d, k


def _shortest_shorter(e):
    """``_shortest`` where c = 2^52 above the smallest normal: the interval below is half as wide."""
    t = _tables()
    k = (e * 631305 - 261663) >> 21  # floor(e log10 2 - log10(4/3))
    shift = (11 - e - _floor_log2_pow10(-k)).astype(np.uint64)  # 8..11
    high = t["phi_high"].take(-k - _K_MIN)
    # the interval ends (2^52 - 1/4) 2^e and (2^52 + 1/2) 2^e times 10^-k, both included: the left
    # end rounded up (it is an integer only at e = 2, 3), the right end down
    left = ((high - (high >> _U(54))) >> shift) + ((e < 2) | (e > 3))
    right = (high + (high >> _U(53))) >> shift
    d = right // _U(10) * _U(10)
    # no multiple of 10 in the interval: the scaled value rounded half up, which is a tie only at
    # e = -77, where it goes to the even digit
    closest = ((high >> (shift - _U(1))) + _U(1)) >> _U(1)
    tie = (e == -77) & (closest & _U(1)).astype(bool)
    closest = np.where(tie, closest - _U(1), np.where(closest < left, closest + _U(1), closest))
    return np.where(d >= left, d, closest), k


def _format_normal(values: np.ndarray, out: np.ndarray) -> None:
    """Write the repr rows of finite normal float64 values into ``out``, an (n, WIDTH) uint8 array."""
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
    source.view(np.uint8).ravel().take(index, out=out, mode="clip")


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
        biased = (chunk.view(np.uint64) >> _U(52)) & _U(0x7FF)
        normal = (biased != 0) & (biased != 0x7FF)
        if normal.all():
            _format_normal(chunk, out)
            continue
        text = np.empty((np.count_nonzero(normal), WIDTH), dtype=np.uint8)
        _format_normal(chunk[normal], text)
        out[normal] = text
        out[~normal] = repr_each(chunk[~normal])
    return rows
