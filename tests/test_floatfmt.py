"""``floatfmt.repr_many`` against ``repr``, value for value, and the batched CSV cells built on it.

``repr_many`` returns NUL-padded uint8 rows; every check reads them back as
strings (``helpers.row_texts``) and compares with
``list(map(repr, values.tolist()))``: the vectorized formatter must print
the very bytes Python prints, over random bit patterns of every exponent
and over the values where a shortest round-trip formatter is most likely to
slip: powers of two and ten and their neighbours, exact ties, integers at
the edge of exactness, the thresholds of repr's positional and scientific
layouts, subnormals and the non-finite values.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aodecomp import cli, floatfmt
from helpers import row_texts


def repr_many(values) -> list[str]:
    return row_texts(floatfmt.repr_many(values))

SLICE = 1 << 17  # values per comparison, to keep the lists of strings small


def assert_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    for start in range(0, len(values), SLICE):
        part = values[start:start + SLICE]
        got, want = repr_many(part), list(map(repr, part.tolist()))
        if got != want:
            i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            pytest.fail(f"{part[i].view(np.uint64):#018x}: repr_many gives {got[i]!r}, repr {want[i]!r}")


def with_neighbours(values: np.ndarray, steps: int = 1) -> np.ndarray:
    """``values`` and the ``steps`` nearest doubles on either side of each."""
    out = [values]
    down = up = values
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


def test_random_bit_patterns_over_all_exponents():
    rng = np.random.default_rng(20201)
    bits = rng.integers(0, 2**64, size=1 << 20, dtype=np.uint64, endpoint=False)
    assert_repr(bits.view(np.float64))
    # the same significands at every biased exponent, so no exponent is left to chance
    fractions = rng.integers(0, 1 << 52, size=64, dtype=np.uint64)
    exponents = np.arange(2048, dtype=np.uint64)
    assert_repr(((exponents[:, None] << np.uint64(52)) | fractions).view(np.float64).ravel())


def test_powers_of_two_and_their_neighbours():
    # c = 2^52: the interval below a power of two is half as wide as above
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_repr(with_neighbours(powers, steps=2))
    assert_repr(-powers)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_repr(with_neighbours(powers, steps=2))
    assert_repr(with_neighbours(-powers))


def test_exact_ties_round_to_the_even_digit():
    # quarter-odd values c / 4 in [2^50, 2^51) lie exactly between two 17-digit decimals
    assert repr_many(np.array([1125899906842624.25, 1125899906842624.75])) == [
        "1125899906842624.2",
        "1125899906842624.8",
    ]
    rng = np.random.default_rng(4)
    c = rng.integers(1 << 52, 1 << 53, size=1 << 16) | 1
    assert_repr(np.ldexp(c.astype(np.float64), -2))


def test_integers_at_the_edge_of_exactness():
    for centre in (2.0**53, 1e15, 1e16, 1e17, 2.0**63):
        offsets = np.arange(-2000, 2001, dtype=np.float64)
        assert_repr(centre + offsets)
        assert_repr(with_neighbours(np.array([centre]), steps=64))


def test_layout_thresholds():
    # repr prints decimal exponents -4..15 positionally and all others in scientific form
    thresholds = np.array([1e-5, 1e-4, 1e-3, 0.1, 1.0, 1e15, 1e16, 1e17, 9.999999999999999e15, 9.999999999999999e-5])
    assert_repr(with_neighbours(thresholds, steps=32))
    assert_repr(with_neighbours(-thresholds, steps=32))
    assert repr_many(np.array([1e-5, 1e-4, 1e16, 1e15, 1.5e300, 2.5e-300])) == [
        "1e-05", "0.0001", "1e+16", "1000000000000000.0", "1.5e+300", "2.5e-300",
    ]
    # significands of 1..17 nonzero digits: in the 17-digit layout (one digit, then four 4-digit chunks),
    # 0-4 whole zero chunks follow the last nonzero one, which ends in 0-3 zeros, at exponents on both
    # sides of each threshold
    digits = "12345678912345678"
    exponents = (*range(-7, 20), -101, -100, 99, 100, 300)
    shapes = np.array([float(f"{digits[:m]}e{e + 1 - m}") for m in range(1, 18) for e in exponents])
    assert_repr(shapes)
    assert_repr(-shapes)


def test_significand_has_16_or_17_digits_at_every_exponent():
    # the layout counts digits with one compare, d >= 10^16, and splits 17 digits; it runs on every
    # row of a chunk, the ones repr overwrites included, so 10^15 <= d < 10^17 must hold for every c
    # in [2^52, 2^53) at every biased exponent
    rng = np.random.default_rng(1017)
    fractions = np.concatenate([[0, 1, (1 << 52) - 1], rng.integers(0, 1 << 52, size=29)]).astype(np.uint64)
    biased = np.arange(2048, dtype=np.uint64)
    bits = ((biased[:, None] << np.uint64(52)) | fractions).ravel()
    d, _, _ = floatfmt._shortest(bits, (bits >> np.uint64(52)).astype(np.intp), floatfmt._tables())
    assert d.min() >= 10**15 and d.max() < 10**17


@pytest.mark.parametrize("exponent", [-5, -4, 15, 16, -99, 99, -100, 100, -308, 308])
def test_shortest_forms_of_16_and_17_digits(exponent):
    # random doubles of one decade: lay out both digit counts on either side of repr's thresholds
    low = max(float(f"1e{exponent}"), np.finfo(np.float64).tiny)
    high = float(f"1e{exponent + 1}") if exponent < 308 else np.finfo(np.float64).max
    lo, hi = np.array([low, high]).view(np.int64)
    values = np.random.default_rng(exponent + 400).integers(lo, hi, size=4000).view(np.float64)
    digits = np.array([len(Decimal(repr(x)).normalize().as_tuple().digits) for x in values.tolist()])
    assert (digits == 16).sum() >= 100 and (digits == 17).sum() >= 100, Counter(digits.tolist())
    chosen = values[(digits == 16) | (digits == 17)]
    assert_repr(chosen)
    assert_repr(-chosen)


def test_multiples_of_a_thousandth():
    assert_repr(np.arange(200_000) * 0.001)


def test_subnormals_and_the_smallest_normals():
    tiny = np.arange(1, 1 << 16, dtype=np.uint64)
    assert_repr(tiny.view(np.float64))  # 5e-324, 1e-323, 1.5e-323, ...
    rng = np.random.default_rng(9)
    assert_repr(rng.integers(1, 1 << 52, size=1 << 16, dtype=np.uint64).view(np.float64))
    smallest_normal = np.array([2.2250738585072014e-308])
    assert_repr(with_neighbours(smallest_normal, steps=16))
    assert_repr(-with_neighbours(smallest_normal, steps=16))


def test_zeros_and_non_finite_values():
    values = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.7976931348623157e308, -5e-324])
    assert repr_many(values) == list(map(repr, values.tolist()))
    assert repr_many(np.array([], dtype=np.float64)) == []


def test_chunks_mixing_normal_and_special_values():
    rng = np.random.default_rng(12)
    values = rng.standard_normal(3 * floatfmt.CHUNK + 17)
    values[rng.integers(0, len(values), 500)] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324], 500)
    assert_repr(values)
    assert_repr(values[::-3])  # a strided view


def _floor_log10_pow2(e: int) -> int:
    """floor(log10(2^e)), exactly: 5^n is never a power of ten."""
    return len(str(2**e)) - 1 if e >= 0 else len(str(5**-e)) - 1 + e


def _floor_log2_pow10(k: int) -> int:
    """floor(log2(10^k)), exactly: 10^k is a power of two only at k = 0."""
    return (10**k).bit_length() - 1 if k >= 0 else -(10**-k).bit_length()


def dragonbox_branch(x: float) -> str:
    """Which branch of Dragonbox's nearest-to-even path decides ``x``, in exact integer arithmetic."""
    bits = int(np.float64(x).view(np.uint64))
    biased, fraction = (bits >> 52) & 0x7FF, bits & ((1 << 52) - 1)
    e = biased - 1075
    if fraction == 0 and biased > 1:
        return "shorter interval, tie" if e == -77 else "shorter interval"
    c = fraction | 1 << 52
    k = 2 - _floor_log10_pow2(e)  # zi is the interval's right end times 10^k
    shift = 127 - _floor_log2_pow10(k)
    phi = -(-(10 ** max(k, 0) << max(shift, 0)) // (10 ** max(-k, 0) << max(-shift, 0)))
    beta = e + _floor_log2_pow10(k)
    product = ((2 * c + 1) << beta) * phi
    zi, middle = product >> 128, (product >> 64) & ((1 << 64) - 1)
    delta = (phi >> 64) >> (63 - beta)
    s, r = divmod(zi, 1000)
    if r == 0 and middle == 0 and c % 2:
        return "right end excluded"
    if r == delta:
        return "left end decides"
    if r < delta:
        return "big divisor"
    dist = r - delta // 2 + 50
    if dist % 100:
        return "small divisor"
    # the parity of floor(2c phi 2^beta / 2^128), and whether its 64 bits below the point are 0
    y = 2 * c * phi
    if (y >> (128 - beta)) & 1 != ((dist ^ 50) & 1):
        return "hundredths, parity correction"
    if (y >> (64 - beta)) & ((1 << 64) - 1) == 0 and (10 * s + dist // 100) % 2:
        return "hundredths, tie to even"
    return "hundredths"


def rare_branch_values() -> np.ndarray:
    """Finite normal values that take every branch of ``dragonbox_branch``."""
    rng = np.random.default_rng(1903)
    odd = (1 << 52) + 1 + 10 * np.arange(64)  # 2c + 1 divisible by 5: exact right ends on s 10^3
    quarter_odd = rng.integers(1 << 52, 1 << 53, size=512) | 1
    values = np.concatenate([
        np.ldexp(odd.astype(np.float64), 2),
        np.ldexp(odd.astype(np.float64), 3),
        np.ldexp(quarter_odd.astype(np.float64), -2),  # exact ties between 17-digit decimals
        rng.integers(0, 1 << 64, size=1 << 14, dtype=np.uint64).view(np.float64),
        np.arange(1, 4000) * 0.001,
        np.ldexp(1.0, np.arange(-1021, 1024)),  # c = 2^52, e = -77 at 2^-25
    ])
    return values[np.isfinite(values) & (np.abs(values) >= np.finfo(np.float64).tiny)]


def test_every_rare_branch_of_the_core_matches_repr():
    values = rare_branch_values()
    branches = Counter(map(dragonbox_branch, values.tolist()))
    assert set(branches) == {
        "right end excluded", "left end decides", "big divisor", "small divisor", "hundredths",
        "hundredths, parity correction", "hundredths, tie to even", "shorter interval", "shorter interval, tie",
    }, branches
    assert dragonbox_branch(2.0**-25) == "shorter interval, tie"
    assert_repr(values)
    assert_repr(-values)


def test_repr_prints_every_row_the_one_product_leaves_open(monkeypatch):
    sent = []
    original = floatfmt.repr_each

    def recorded(values):
        sent.append(np.array(values))
        return original(values)

    monkeypatch.setattr(floatfmt, "repr_each", recorded)
    values = rare_branch_values()
    floatfmt.repr_many(values)
    open_rows = np.array([dragonbox_branch(x) not in ("big divisor", "small divisor") for x in values.tolist()])
    assert open_rows.any()
    through_repr = np.isin(values.view(np.uint64), np.concatenate([np.empty(0), *sent]).view(np.uint64))
    assert through_repr[open_rows].all()
    # on random normal values repr is a rare fallback (0.9% of them)
    sent.clear()
    rng = np.random.default_rng(1915)
    n = 1 << 20
    sign = rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63)
    biased = rng.integers(1, 0x7FF, size=n, dtype=np.uint64) << np.uint64(52)
    fraction = rng.integers(0, 1 << 52, size=n, dtype=np.uint64)
    floatfmt.repr_many((sign | biased | fraction).view(np.float64))
    assert sum(map(len, sent)) <= 0.02 * n
    assert len(sent) == 1  # the rows of every chunk, in one call


def test_a_call_keeps_its_work_space_small():
    # the distinct values of a 110 x 110 report: 1.16 MB of rows and about 1.5 MB of work space a
    # chunk, most of it _shortest's uint64 columns; a per-byte (CHUNK, 24) intp index would add 1.5 MB
    values = np.random.default_rng(48_400).standard_normal(48_400)
    floatfmt.repr_many(values[:1])  # builds the tables outside the trace
    tracemalloc.start()
    try:
        rows = floatfmt.repr_many(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.nbytes == 48_400 * floatfmt.WIDTH
    assert peak < 3_200_000, peak


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats())
def test_single_floats_match_repr(x):
    assert repr_many(np.array([x])) == [repr(x)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(arrays(np.float64, st.integers(0, 600), elements=st.floats()))
def test_float_arrays_match_repr(values):
    assert repr_many(values) == list(map(repr, values.tolist()))


def test_float_cells_mixes_small_and_large_distinct_sets(monkeypatch):
    calls = []
    original = floatfmt.repr_many

    def counted(values):
        calls.append(len(values))
        return original(values)

    monkeypatch.setattr(floatfmt, "repr_many", counted)
    rng = np.random.default_rng(3)
    n = cli._BLOCK_ROWS
    large_unique = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)  # unsorted, no repeats
    small_repeats = rng.choice(np.array([0.5, -0.0, 0.0, np.nan, 3.25]), n)
    large_repeats = rng.choice(rng.standard_normal(600), n)
    small_unique = np.linspace(1.0, -1.0, 100)
    descending = np.sort(rng.uniform(-1e6, 1e6, n))[::-1].copy()
    columns = [large_unique, small_repeats, large_repeats, descending]
    cells = cli._float_cells(columns, False)
    assert [row_texts(rows) for rows in cells] == [list(map(repr, column.tolist())) for column in columns]
    distinct_large_repeats = len(np.unique(large_repeats))
    assert distinct_large_repeats >= cli._NUMPY_MIN_VALUES
    # every distinct value of the columns, in one call
    assert calls == [2 * n + len(np.unique(small_repeats.view(np.int64))) + distinct_large_repeats]
    calls.clear()
    assert [row_texts(rows) for rows in cli._float_cells([small_unique], False)] == [list(map(repr, small_unique.tolist()))]
    assert calls == []  # below the break-even every value goes through repr


def test_float_cells_keeps_row_order_across_a_csv_block(capsys):
    rng = np.random.default_rng(8)
    n = cli._BLOCK_ROWS + 300
    columns = [rng.permutation(n) * 0.001 - 1.0, rng.choice(np.array([1.0, 2.0]), n), rng.standard_normal(n)]
    cli._emit_csv(["a", "b", "c"], columns, None)
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "a,b,c"
    expected = [",".join(map(repr, row)) for row in zip(*((c + 0.0).tolist() for c in columns))]
    assert rows[1:] == expected
