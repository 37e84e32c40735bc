"""Compare ``floatfmt.repr_many`` with ``repr`` on seeded random bit patterns.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/check_floatfmt.py --seed S --count N

Draws N float64 bit patterns from ``numpy.random.default_rng(S)``: uniform
64-bit words, so the sign and every biased exponent, subnormals, infinities
and NaN included, come up alike, except that one pattern in eight keeps only
the top j of its 52 fraction bits, j uniform in 0..52, which gives short
decimals, exact ties and powers of two. Random bit patterns almost always
print 15-17 significant digits, so the check then always adds short
decimals, seeded from (S, 1): four values with each significant-digit count
1..17 at each decimal exponent -324..308, in both signs, which reach every
text length, an exponent after 1-16 digits and every ``0.000ddd`` form.
Each batch is formatted by ``repr_many`` and by ``repr`` and compared byte
for byte. The first value that differs is printed with both texts, and the
exit status is 1; otherwise one line gives the counts, how many of each
kind ``repr_many`` sent through ``repr`` (``floatfmt.repr_each``) and the
time, and the exit status is 0.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from aodecomp import floatfmt

BATCH = 1 << 20
_U = np.uint64


def patterns(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` random float64 bit patterns, every eighth with a fraction cut to its top j bits."""
    bits = rng.integers(0, 1 << 64, size=n, dtype=np.uint64, endpoint=False)
    short = bits[::8]
    kept = rng.integers(0, 53, size=len(short)).astype(np.uint64)
    short &= ~((_U(1) << (_U(52) - kept)) - _U(1))
    return bits


def short_decimals(rng: np.random.Generator, per: int = 4) -> np.ndarray:
    """``per`` values d.ddd 10^x of each digit count 1..17 (first and last digit nonzero) at each x in
    -324..308, and their negatives; those past the finite range round to 0 or an infinity."""
    texts = []
    for count in range(1, 18):
        low, high = 10 ** (count - 1), 10**count
        for x in range(-324, 309):
            for d in rng.integers(low, high, size=per).tolist():
                d += d % 10 == 0  # a last digit of 0 would make the decimal shorter
                texts.append(f"{d}e{x - count + 1}")
    values = np.array([float(text) for text in texts])
    return np.concatenate([values, -values])


def differs(values: np.ndarray) -> bool:
    """Whether a ``repr_many`` row differs from ``repr``; the first one that does is printed with both texts."""
    got = floatfmt.repr_many(values).view(f"S{floatfmt.WIDTH}").ravel()
    want = np.array(list(map(repr, values.tolist())), dtype=f"S{floatfmt.WIDTH}")
    differ = np.flatnonzero(got != want)
    if len(differ):
        i = differ[0]
        print(f"{values.view(np.uint64)[i]:#018x}: repr_many gives {got[i].decode()!r}, repr {want[i].decode()!r}")
    return bool(len(differ))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True, help="bit patterns to compare")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    fallback = 0
    repr_each = floatfmt.repr_each

    def counted(values: np.ndarray) -> np.ndarray:
        nonlocal fallback
        fallback += len(values)
        return repr_each(values)

    floatfmt.repr_each = counted  # restored below, so main leaves the module as it found it
    start = time.perf_counter()
    try:
        for done in range(0, args.count, BATCH):
            if differs(patterns(rng, min(BATCH, args.count - done)).view(np.float64)):
                return 1
        through_repr, fallback = fallback, 0
        short = short_decimals(np.random.default_rng([args.seed, 1]))
        if differs(short):
            return 1
    finally:
        floatfmt.repr_each = repr_each
    print(f"{args.count} bit patterns (seed {args.seed}) and {len(short)} short decimals: repr_many equals "
          f"repr on every one, {through_repr} of the patterns and {fallback} of the short decimals through repr, "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
