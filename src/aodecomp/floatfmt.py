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
Every step runs on whole uint64 or uint32 arrays, a chunk at a time:

- by table lookup on the biased exponent: the decimal exponent
  k = floor(e log10 2) of the value c 2^e, a shift beta and the two words
  of phi = ceil(10^(2-k) 2^(127 - floor((2-k) log2 10)));
- one 64x128-bit product, built from 32-bit limbs, of (2c + 1) 2^beta and
  phi: zi, the right end of the rounding interval times 10^(2-k); the
  interval's width on that scale, delta, lies in [100, 1000);
- zi // 1000 if that lies in the interval, else the closest decimal one
  digit longer, from the distance in hundredths, in uint32 (every number
  past zi // 1000 is below 2^11);
- the significand d: c + 1/2 in [2^52, 2^53) and delta in [100, 1000) keep
  it in [10^15, 10^17), so one compare with 10^16 tells 16 digits from 17;
- its 17 digits (a 16-digit d times 10): the first, then two uint32 halves
  of 8, each split into two 4-digit strings of a table;
- by table lookup on the decimal exponent: its text and repr's layout,
  decimal exponents -4..15 positionally, with ``.0`` on integers, others as
  ``d.ddde±XX`` with at least two exponent digits.

The one product decides a row unless zi % 1000 is 0 (an odd c may exclude the
right end) or delta (the left end decides), or the distance is a whole
number of hundredths (the digit may be one less, or a tie goes to the even
digit): Dragonbox settles those with the parity of a second product. Those
rows, about 0.9% of random normal values, go through ``repr`` itself
(``repr_each``), and so do the rows the path does not cover: zeros,
subnormals, infinities, NaN and the powers of two, whose interval below is
half as wide. ``repr_each`` runs once per ``repr_many`` call, on the rows
every chunk left open. Every other row holds exactly the digits Dragonbox
computes, so each row equals ``repr``. The layout runs on every row of a
chunk and stays in range on the rows ``repr`` overwrites, since the same
bounds keep their significands in [10^15, 10^17).

Dragonbox replaced Schubfach (R. Giulietti, 2020), which took three
round-to-odd products a value; it is the one shortest-digit algorithm here.
The tables are built on first use, not at import.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# Values per pass through the vectorized path; bounds a call's temporaries
# to about 3 MB beyond its rows, half of it the (CHUNK, 24) intp gather index
# (tracemalloc on 65,536 values: 1.6 MB at 4096, 2.9 at 8192, 5.7 at 16384).
# On the values the benchmark formats in one seed-7 pass (trajectory 760k,
# grid_sweep 177k; in-process on a 2-vCPU KVM guest, medians of 15
# interleaved passes in each of three runs), 8192 took 0.90-0.95 of the time
# of 4096 on trajectory and 0.90-0.94 on grid_sweep; 16384 took 1.19-1.22 of
# the time of 8192 on trajectory and 0.96-1.00 on grid_sweep.
CHUNK = 8192

_K_MIN, _K_MAX = -292, 326  # decimal exponents of the table: 2 - k for every biased exponent
_U = np.uint64
_U32 = np.uint32
_MASK32 = _U(0xFFFFFFFF)
_FRACTION = _U((1 << 52) - 1)

# Bytes of the per-value source row that a layout indexes: 20 digit
# characters (three leading '0', then the 17-digit significand), 4 exponent
# characters ('0' and three digits), then constants and padding.
_ROW = 32
_DIGIT0 = 3
_EXP = 20
_DOT, _ZERO, _MINUS, _E, _PLUS, _PAD = range(24, 30)
WIDTH = 24  # longest repr of any double: -1.2345678901234567e-308
_CODES = 24  # 20 positional decimal points (-3..16), then 4 exponent forms
_DIGITS = 17  # significand digits of the source row; a layout key counts 0..17 of them
_NEG = (_DIGITS + 1) * _CODES  # key offset of the negative layouts


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
    """The phi table of Dragonbox, the layouts and the digit and exponent tables (about 150 kB)."""
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
    layouts = np.full((2 * (_DIGITS + 1) * _CODES, WIDTH), _PAD, dtype=np.uint8)
    for row, (neg, n, code) in enumerate(np.ndindex(2, _DIGITS + 1, _CODES)):
        if n:
            layouts[row] = _layout(bool(neg), n, code)
    i = np.arange(10000, dtype=np.uint16)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8) + ord("0")
    four = digits.view(np.uint32).ravel()  # "%04d" of 0..9999, 4 characters in one uint32
    # by the decimal exponent x of the text d.ddd 10^x, which is k + 15 for 16 digits and k + 16 for 17,
    # over every biased exponent: repr's layout code plus the key of 17 digits, and "%04d" of |x|
    x = np.arange(k.min() + _DIGITS - 2, k.max() + _DIGITS)
    code = np.where((x >= -4) & (x <= 15), x + 4, 20 + 2 * (x < 0) + (np.abs(x) >= 100))
    trailing = np.where(i == 0, 4, sum((i % 10**j == 0).astype(np.intp) for j in (1, 2, 3)))
    return {
        "at": k - k.min(),  # the row of x = k + 15 in the decimal-exponent tables
        "beta": beta,
        "high": high,
        "low": phi_low[2 - k - _K_MIN],
        "delta": (high >> (_U(63) - beta)).astype(np.uint32),  # 100 <= delta < 1000
        "layouts": layouts,
        "four": four,
        "trailing": (trailing * _CODES).astype(np.int8),  # trailing zeros of "%04d", in layout keys
        "key": _DIGITS * _CODES + code,
        "exponent": four[np.abs(x)],
        "constants": np.frombuffer(b".0-e+\0\0\0", dtype=np.uint32),
    }


def _mul_high(a0, a1, b):
    """High 64 bits of the 128-bit products of a = a1 2^32 + a0 and b, from 32-bit limbs (no sum overflows)."""
    b0, b1 = b & _MASK32, b >> _U(32)
    t = a1 * b0 + ((a0 * b0) >> _U(32))
    w = a0 * b1 + (t & _MASK32)
    return a1 * b1 + (t >> _U(32)) + (w >> _U(32))


def _shortest(bits: np.ndarray, biased: np.ndarray, t: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decimal significand d of each normal double whose c is not 2^52, the row of its decimal
    exponent tables (``t["at"]``), and which rows the one product leaves undecided."""
    high, low, beta, delta = (t[name].take(biased) for name in ("high", "low", "beta", "delta"))
    # zi = floor((c + 1/2) 2^e 10^(2 - k)), the scaled right end of the rounding interval, is the
    # high word of the one 64x128-bit product u phi
    u = (((bits & _FRACTION) << _U(1)) | _U((1 << 53) + 1)) << beta
    u0, u1 = u & _MASK32, u >> _U(32)
    product_low = u * high
    middle = product_low + _mul_high(u0, u1, low)
    zi = _mul_high(u0, u1, high) + (middle < product_low)
    s = zi // _U(1000)
    r = (zi - s * _U(1000)).astype(np.uint32)  # from here on every number is below 2^11
    big = r < delta  # s 10^(k + 1) lies in the interval
    # else one digit more: zi less its distance to the centre, in hundredths, rounded
    dist = r - (delta >> _U32(1)) + _U32(50)
    q = dist // _U32(100)
    d = s * _U(10)
    d += np.where(big, _U32(0), q)
    # at r = 0 an odd c may exclude the right end, at r = delta the left end decides, and at a
    # whole number of hundredths the digit may be one less or a tie: each needs a lower product
    undecided = (r == 0) | (r == delta) | (~big & (q * _U32(100) == dist))
    return d, t["at"].take(biased), undecided


def _format(
    bits: np.ndarray, biased: np.ndarray, t: dict, source: np.ndarray, offsets: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Lay out ``_shortest``'s decimal of each float64 bit pattern into ``out``, an (n, WIDTH) uint8
    array, through ``source``, (n, _ROW // 4) uint32 rows whose constant columns are filled and
    whose bytes start at ``offsets``; return the rows it leaves undecided."""
    d, at, undecided = _shortest(bits, biased, t)
    # 10^15 <= d < 10^17 (c + 1/2 in [2^52, 2^53), delta in [100, 1000)): 16 or 17 digits
    long = d >= _U(10**16)
    at += long
    digits = np.where(long, d, d * _U(10))  # 17 digits
    upper = digits // _U(10**8)  # 9 digits
    lower = (digits - upper * _U(10**8)).astype(np.uint32)
    upper = upper.astype(np.uint32)
    top = upper // _U32(10**8)
    upper -= top * _U32(10**8)
    four = t["four"]
    four.take(top, out=source[:, 0], mode="clip")
    columns = []
    for j, half in ((1, upper), (3, lower)):
        quotient = half // _U32(10**4)
        half -= quotient * _U32(10**4)
        four.take(quotient, out=source[:, j], mode="clip")
        four.take(half, out=source[:, j + 1], mode="clip")
        columns += [quotient, half]
    t["exponent"].take(at, out=source[:, 5], mode="clip")
    # the key counts the digits left after the trailing zeros: whole zero chunks after the last
    # nonzero one (the top digit, 1..9, never is zero), then that chunk's own
    last = columns[3]
    zero = last == 0
    whole = zero.astype(np.intp)
    for column in columns[2::-1]:
        last = np.where(zero, column, last)
        zero &= column == 0
        whole += zero
    last = np.where(zero, top, last)
    whole *= 4 * _CODES
    key = t["key"].take(at)
    key -= whole
    key -= t["trailing"].take(last)
    key += (bits.view(np.int64) < 0) * _NEG
    index = np.add(t["layouts"].take(key, axis=0), offsets, dtype=np.intp)
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
    if not len(values):
        return rows
    t = _tables()
    # one chunk's source rows and their byte offsets, reused by every chunk
    source = np.empty((min(len(values), CHUNK), _ROW // 4), dtype=np.uint32)
    source[:, 6:] = t["constants"]
    offsets = np.arange(0, source.nbytes, _ROW)[:, None]
    fallback = np.empty(len(values), dtype=bool)
    for start in range(0, len(values), CHUNK):
        bits = values[start:start + CHUNK].view(np.uint64)
        biased = (bits.view(np.int64) >> 52) & 0x7FF
        # zeros, subnormals, infinities, NaN and powers of two (c = 2^52) lie outside the product's path
        rare = (biased == 0) | (biased == 0x7FF) | ((bits & _FRACTION) == 0)
        m = len(bits)
        undecided = _format(bits, biased, t, source[:m], offsets[:m], rows[start:start + CHUNK])
        np.bitwise_or(rare, undecided, out=fallback[start:start + CHUNK])
    fallback = np.flatnonzero(fallback)
    rows[fallback] = repr_each(values[fallback])
    return rows
