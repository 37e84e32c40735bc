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
    cells = cli._float_cells(columns)
    assert [row_texts(rows) for rows in cells] == [list(map(repr, column.tolist())) for column in columns]
    distinct_large_repeats = len(np.unique(large_repeats))
    assert distinct_large_repeats >= cli._NUMPY_MIN_VALUES
    # every distinct value of the columns, in one call
    assert calls == [2 * n + len(np.unique(small_repeats.view(np.int64))) + distinct_large_repeats]
    calls.clear()
    assert [row_texts(rows) for rows in cli._float_cells([small_unique])] == [list(map(repr, small_unique.tolist()))]
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
