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
- its 17 digits (a 16-digit d times 10) as text in three little-endian
  uint64 words, at bytes 7..23 of a 24-byte row: the first digit, then
  two uint32 halves of 8, each split into two 4-digit strings of a table;
  the count of significant digits is read from the float64 exponent of
  each word after the first digit, less its '0' characters;
- by table lookup on the decimal exponent and the sign, one of 42 layout
  forms: repr's layout of decimal exponents -4..15 positionally, with
  ``.0`` on integers, and of the others as ``d.ddde±XX`` with at least two
  exponent digits. A form gives the digits' shift, a mask of those before
  the point, which move one byte further, and the constant text (sign,
  point, the zeros of ``0.000ddd``) that fills the gaps; each applies to
  the three words at once;
- by table lookup on the form and the digit count, the text's length: the
  row is cut there, and the exponent text, by table lookup on the decimal
  exponent, is shifted in right after it.

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
bounds keep their significands in [10^15, 10^17). The words are built and
stored as explicit little-endian values, so the rows do not depend on the
host's byte order.

Dragonbox replaced Schubfach (R. Giulietti, 2020), which took three
round-to-odd products a value; it is the one shortest-digit algorithm here.
The tables are built on first use, not at import.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# Values per pass through the vectorized path; bounds a call's temporaries
# to about 1.5 MB beyond its rows, most of it _shortest's uint64 columns
# (1.0 MB), then the (3, CHUNK) uint64 words (196 kB each). A last pass of
# fewer than CHUNK // 4 values joins the one before it, which then takes up
# to 1.25 CHUNK values and about 1.8 MB
# (tracemalloc on 65,536 values: 0.84 MB at 4096, 1.49 at 8192, 2.89 at 16384).
# On the values the benchmark formats in one seed-7 pass (trajectory 760k,
# grid_sweep 177k; in-process on a 2-vCPU KVM guest, medians of 15
# interleaved passes in each of three runs), 4096 took 1.12-1.23 of the time
# of 8192 on both workloads; 16384 took 1.00-1.03 of it on trajectory and
# 0.90-0.93 on grid_sweep, for twice the work space.
CHUNK = 8192

_K_MIN, _K_MAX = -292, 326  # decimal exponents of the table: 2 - k for every biased exponent
_U = np.uint64
_U32 = np.uint32
_MASK32 = _U(0xFFFFFFFF)
_FRACTION = _U((1 << 52) - 1)

WIDTH = 24  # longest repr of any double: -1.2345678901234567e-308
_DIGITS = 17  # significand digits of the digit words, at bytes 7..23 of a row
_CODES = 21  # repr's layouts: decimal exponents -4..15 positionally, then the exponent form
_FORMS = 2 * _CODES  # a layout code and a sign
_ONES = _U(0xFFFFFFFFFFFFFFFF)
_WORD_BITS = np.array([[0], [64], [128]])  # the first bit of each of a row's three words
_TOP_BYTE = np.array([[127], [119]])  # (E + 1) >> 3 less n - 1 for each digit word after the first digit


def _form(negative: bool, code: int) -> tuple[bytes, int, int]:
    """The constant text of a layout form, its digits before the point and its shift in bytes.

    Every digit moves right by the shift from bytes 7..23, and those before
    the point one byte further; the constant text fills the gaps: the sign,
    the point and the zeros of ``0.000ddd``.
    """
    sign = b"-" if negative else b""
    if code < 4:  # 0.ddd, 0.0ddd, ...: every digit follows the constant text
        text = sign + b"0." + b"0" * (3 - code)
        return text, 0, 7 - len(text)
    point = code - 3 if code < 20 else 1
    return sign + bytes(point) + b".", point, 6 - len(sign)


def _length(negative: bool, code: int, n: int) -> int:
    """The length of the text of n significant digits in a layout form, before any exponent text."""
    if code == 20:
        return negative + n + (n > 1)
    if code < 4:
        return negative + 5 - code + n
    return negative + max(n, code - 2) + 1


def _floor_log2_pow10(k):
    """floor(k log2 10), exact for |k| <= 1233."""
    return (k * 1741647) >> 19


@cache
def _tables() -> dict:
    """The phi table of Dragonbox, the digit and exponent text and the layout forms (about 127 kB)."""
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
    i = np.arange(10000, dtype=np.uint16)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8) + ord("0")
    # by the decimal exponent x of the text d.ddd 10^x, which is k + 15 for 16 digits and k + 16 for 17,
    # over every biased exponent: repr's layout code and the exponent text
    x = np.arange(k.min() + _DIGITS - 2, k.max() + _DIGITS)
    code = np.where((x >= -4) & (x <= 15), x + 4, 20)
    exponent = [f"e{v:+03d}".encode() if c == 20 else b"" for v, c in zip(x.tolist(), code.tolist())]
    # by form (2 code + sign): the constant text and the mask of the digits before the point, as
    # (3, _FORMS) words, and the shift; by form and digit count n: the text's length in bits
    forms = [_form(bool(negative), c) for c, negative in np.ndindex(_CODES, 2)]
    constant = np.array([text for text, _, _ in forms], dtype=f"S{WIDTH}")
    point = np.zeros((_FORMS, WIDTH), dtype=np.uint8)
    for row, (_, before, shift) in enumerate(forms):
        point[row, 7 - shift:7 - shift + before] = 0xFF
    length = [_length(bool(negative), c, n) for c, negative, n in np.ndindex(_CODES, 2, _DIGITS + 1) if n]
    return {
        "at": k - k.min(),  # the row of x = k + 15 in the decimal-exponent tables
        "beta": beta,
        "high": high,
        "low": phi_low[2 - k - _K_MIN],
        "delta": (high >> (_U(63) - beta)).astype(np.uint32),  # 100 <= delta < 1000
        "four": digits.view("<u4").ravel(),  # "%04d" of 0..9999, 4 characters in one uint32
        "form": 2 * code,
        "exponent": np.array(exponent, dtype="S8").view("<u8"),
        "constant": constant.view("<u8").reshape(_FORMS, 3).T.copy(),
        "point": point.view("<u8").T.copy(),
        "shift": np.array([8 * shift for _, _, shift in forms], dtype=np.uint64),
        "length": 8 * np.array(length, dtype=np.uint8),
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


def _shift_right(words: np.ndarray, shift) -> None:
    """Shift each column of (3, n) words, one little-endian 192-bit number, right by 1..63 bits in place."""
    carry = words[1:] << (_U(64) - shift)
    words >>= shift
    words[:2] |= carry


def _format(bits: np.ndarray, biased: np.ndarray, t: dict, out: np.ndarray) -> np.ndarray:
    """Lay out ``_shortest``'s decimal of each float64 bit pattern into ``out``, an (n, WIDTH) uint8
    array; return the rows it leaves undecided."""
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
    # the digit words, one column a row: the first digit at byte 7, then four 4-digit strings
    text = np.empty((3, len(bits)), dtype="<u8")
    np.left_shift(top + _U32(ord("0")), _U(56), out=text[0])
    quads = text.view("<u4")
    for j, half in ((1, upper), (2, lower)):
        quotient = half // _U32(10**4)
        half -= quotient * _U32(10**4)
        # intp indexes: take converts any other index type on every call
        t["four"].take(quotient.astype(np.intp), out=quads[j, 0::2], mode="clip")
        t["four"].take(half.astype(np.intp), out=quads[j, 1::2], mode="clip")
    # the significant digits n: (E + 1) >> 3, with E the biased float64 exponent of a word after the first
    # digit less its '0's, is 128 plus the word's top nonzero byte, or 0 for a word of '0's (every
    # byte is below 16, so rounding to 53 bits never carries into the next byte)
    magnitude = (text[1:] ^ _U(0x3030303030303030)).astype(np.float64).view(np.int64)
    magnitude += 1 << 52
    magnitude >>= 55
    magnitude -= _TOP_BYTE
    count = np.maximum(magnitude[0], magnitude[1])
    np.maximum(count, 0, out=count)  # n - 1
    form = t["form"].take(at)
    form |= (bits >> _U(63)).view(np.int64)
    key = form * _DIGITS
    key += count
    # every digit moves right by the form's shift, and those before the point one byte further;
    # part holds one (3, n) operand after another
    _shift_right(text, t["shift"].take(form))
    part = t["point"].take(form, axis=1)
    part &= text
    text ^= part
    _shift_right(part, _U(8))
    text |= part
    t["constant"].take(form, axis=1, out=part, mode="clip")
    text |= part
    # the text cut to its length, then the exponent text right after it
    place = t["length"].take(key) - _WORD_BITS  # bits of each word below the cut, if in 0..63
    np.maximum(place, 0, out=part.view(np.int64))
    np.left_shift(_ONES, part, out=part)  # numpy shifts by 64 or more to 0
    np.invert(part, out=part)
    text &= part
    exponent = t["exponent"].take(at)
    np.left_shift(exponent, place.view(np.uint64), out=part)  # a negative place shifts by 2^63 or more
    text |= part
    np.negative(place, out=place)
    np.right_shift(exponent, place.view(np.uint64), out=part)  # the part that spills into the next word
    np.bitwise_or(text, part, out=out.view("<u8").T)
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
    fallback = np.empty(len(values), dtype=bool)
    # a last chunk of fewer than CHUNK // 4 values joins the one before it, so it
    # does not pay a whole pass's fixed cost
    stops = [*range(CHUNK, len(values), CHUNK), len(values)]
    if len(stops) > 1 and stops[-1] - stops[-2] < CHUNK // 4:
        del stops[-2]
    for start, stop in zip([0, *stops], stops):
        bits = values[start:stop].view(np.uint64)
        biased = (bits.view(np.int64) >> 52) & 0x7FF
        # zeros, subnormals, infinities, NaN and powers of two (c = 2^52) lie outside the product's path
        rare = (biased == 0) | (biased == 0x7FF) | ((bits & _FRACTION) == 0)
        undecided = _format(bits, biased, t, rows[start:stop])
        np.bitwise_or(rare, undecided, out=fallback[start:stop])
    fallback = np.flatnonzero(fallback)
    rows[fallback] = repr_each(values[fallback])
    return rows
