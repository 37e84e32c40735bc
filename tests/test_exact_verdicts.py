"""Every zero verdict of ``report_many`` is the verdict of its quantity's exact value, checked on derandomized draws.

All nine catalog systems are polynomials with float coefficients, so at a
float input div f and H_P have exact rational values (``fractions.Fraction``).
The exact values come from closed forms, not from the program:

- the oscillator: div f = 2 (1 - 2 r^2) and H_P = r^2 (1 - r^2)^2;
- a linear entry x' = A x with friction matrix S: div f = a11 + a22 and
  H_P = f^T S f with f = A x.

The exact verdict is the program's rule applied to the exact value:
conservative where |value| <= tol, otherwise dissipative (div < 0 or any
nonzero H_P) or expanding (div > 0). ``report_many``'s verdict must equal it,
except where the exact value lies within a rounding bound B of tol; there the
computed value may fall on either side. The test checks |computed - exact|
<= B at every point, and the verdict off that band.

The bound B. Every computed quantity is a straight-line program of +, - and
* on floats and exact constants; with no underflow or overflow each operation
returns (a op b)(1 + delta), |delta| <= u = 2^-53. Expanding the program into
monomials, the computed value is sum_k t_k (1 + theta_k), where t_k is the
k-th monomial's exact value and 1 + theta_k the product of the at most m
factors (1 + delta) on its way to the result, so |theta_k| <= gamma_m =
m u / (1 - m u) and

    |computed - exact| <= gamma_m * sum_k |t_k|.

``Rounded`` carries, beside the exact value, sum_k |t_k| (a sum adds its
operands' sizes, a product multiplies them) and m (a sum rounds once more
than its deeper operand, a product once more than both operands together).
Negation is exact. The test runs the program's own closures on ``Rounded``
values, so B follows the program's evaluation order and no formula is copied:

- the field (``VectorField.fn``) and potential gradient (``gradient_fn``);
- the oscillator's divergence (``divergence_fn``). A linear entry's is the
  float ``a11 + a22``, one rounding: B = u |a11 + a22|;
- H_P with a friction matrix (the linear entries): ``_friction_power``
  on the ``Rounded`` field. Its ``s.a12 + s.a21`` is a float sum made before
  any ``Rounded`` value enters; it is exact because every catalog S is
  exactly symmetric, so the exact value of the mirrored program equals the
  closed form, which the test asserts;
- H_P with no friction matrix (the oscillator): ``friction_at(f, g) * ff``
  is fl(fl(-n / ff) * ff), where n = g1 f1 + g2 f2 and ff is the one
  computed |f|^2 of both factors. That is -n (1 + delta1) (1 + delta2): the
  ``Rounded`` n (``_rate`` evaluates it in friction_at's order) with two
  more roundings. At an equilibrium (``equilibrium_mask``) H_P is set to 0,
  so there B is the exact value itself.

The draws keep every nonzero coordinate between 1e-30 and 1e7 in size,
and every product of the programs has at most six coordinate factors, so no
intermediate underflows or overflows and the model above holds. Most draws
lie near the zero sets and the tol level sets: the oscillator within 1e-4 of
r = 1 (H_P = tol near r = 1 +- 1.6e-5), within 1e-8 of r^2 = 1/2 (|div| =
tol at r^2 = 1/2 -+ 2.5e-10) and near r = 3.2e-5 (H_P = tol near the
origin); a linear entry near the directions of the eigenvectors of
A^T S A (its null directions where H_P vanishes) at radii from 0.18 to 7
times the radius where H_P = tol along the drawn direction, some within 64
ulps of it. The rest spread over radii 1e-6 to 1e6.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aodecomp import get, list_systems
from aodecomp.catalog import HOPF
from aodecomp.dissipation import _friction_power, _rate, report_many
from aodecomp.field import equilibrium_mask
from aodecomp.tolerances import DEFAULT_MASTER_TOL

TOL = DEFAULT_MASTER_TOL
U = Fraction(1, 2**53)


class Rounded:
    """A float program's exact value, the sum of its monomials' sizes and the most roundings on one monomial."""

    __slots__ = ("exact", "size", "roundings")

    def __init__(self, exact: Fraction, size: Fraction, roundings: int):
        self.exact, self.size, self.roundings = exact, size, roundings

    @classmethod
    def of(cls, value) -> Rounded:
        if isinstance(value, Rounded):
            return value
        exact = Fraction(value)
        return cls(exact, abs(exact), 0)

    def __add__(self, other) -> Rounded:
        other = Rounded.of(other)
        return Rounded(self.exact + other.exact, self.size + other.size, max(self.roundings, other.roundings) + 1)

    def __sub__(self, other) -> Rounded:
        return self + -Rounded.of(other)

    def __mul__(self, other) -> Rounded:
        other = Rounded.of(other)
        return Rounded(self.exact * other.exact, self.size * other.size, self.roundings + other.roundings + 1)

    def __neg__(self) -> Rounded:
        return Rounded(-self.exact, self.size, self.roundings)

    def __rsub__(self, other) -> Rounded:
        return Rounded.of(other) - self

    def __rmul__(self, other) -> Rounded:
        return self * other

    def rounded(self, times: int) -> Rounded:
        """The same value after ``times`` more relative roundings of the whole."""
        return Rounded(self.exact, self.size, self.roundings + times)

    def bound(self) -> Fraction:
        """gamma_m times the size: the most the computed float can differ from ``exact``."""
        m = self.roundings
        return m * U / (1 - m * U) * self.size


def _exact(name: str, x1: float, x2: float) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(div f, its bound, H_P, its bound) at one point: exact values from the closed forms, bounds from the program."""
    sys = get(name).system
    a, b = Rounded.of(x1), Rounded.of(x2)
    f1, f2 = sys.field.fn(a, b)
    e1, e2 = Fraction(x1), Fraction(x2)
    if name == HOPF:
        r2 = e1 * e1 + e2 * e2
        div, hp = 2 * (1 - 2 * r2), r2 * (1 - r2) ** 2
        div_program = sys.field.divergence_fn(a, b)
        assert div_program.exact == div
        div_bound = div_program.bound()
        hp_program = -_rate(f1, f2, *sys.potential.gradient_fn(a, b)).rounded(2)
    else:
        m, s = get(name).decomposition.a, sys.friction
        v1 = Fraction(m.a11) * e1 + Fraction(m.a12) * e2  # f = A x
        v2 = Fraction(m.a21) * e1 + Fraction(m.a22) * e2
        div = Fraction(m.a11) + Fraction(m.a22)
        div_bound = U * abs(div)
        hp = Fraction(s.a11) * v1 * v1 + (Fraction(s.a12) + Fraction(s.a21)) * v1 * v2 + Fraction(s.a22) * v2 * v2
        hp_program = _friction_power(s, f1, f2)
    assert hp_program.exact == hp
    return div, div_bound, hp, hp_program.bound()


def _exact_verdict(value: Fraction, tol: Fraction, signed: bool) -> int:
    if abs(value) <= tol:
        return 0
    return 2 if signed and value > 0 else 1


def _hopf_levels() -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """(radius, relative spread) of the oscillator's zero sets, and of its tol level sets."""
    outer = inner = 1.0  # r^2 where H_P = tol near r = 1: w (1 - w)^2 = tol, so w = 1 +- sqrt(tol / w)
    for _ in range(4):
        outer, inner = 1.0 + math.sqrt(TOL / outer), 1.0 - math.sqrt(TOL / inner)
    zeros = [(1.0, 1e-4), (math.sqrt(0.5), 1e-8)]
    levels = [(math.sqrt(outer), 1e-5), (math.sqrt(inner), 1e-5), (math.sqrt(TOL), 0.5)]
    levels += [(math.sqrt(0.5 + sign * TOL / 4.0), 1e-9) for sign in (-1.0, 1.0)]
    return zeros, levels


HOPF_ZEROS, HOPF_LEVELS = _hopf_levels()


@functools.cache
def _directions(name: str) -> tuple[float, ...]:
    """Angles of the eigenvectors of A^T S A, the linear H_P's quadratic form, and of their opposites."""
    a = np.array(get(name).decomposition.a.rows())
    q = a.T @ np.array(get(name).system.friction.rows()) @ a
    vectors = np.linalg.eigh(0.5 * (q + q.T))[1].T
    return tuple(math.atan2(v[1], v[0]) + turn for v in vectors for turn in (0.0, math.pi))


def _tol_radius(name: str, theta: float) -> float | None:
    """The radius where a linear entry's H_P = tol along theta; None along a direction where H_P is zero."""
    sys = get(name).system
    hp = float(_friction_power(sys.friction, *sys.field.fn(math.cos(theta), math.sin(theta))))
    return math.sqrt(TOL / hp) if hp > 1e-12 else None


ULPS = 2.0**-46  # 64 ulps of a radius in [1, 2)


@st.composite
def points(draw, name: str):
    """One point near a zero set or tol level set of ``name``, or at a spread scale; see the module docstring."""
    kind = draw(st.sampled_from(("anywhere", "near", "ulps", "off")))
    spread = draw(st.floats(-1.0, 1.0))
    if kind == "anywhere":
        theta, radius = draw(st.floats(0.0, 2.0 * math.pi)), 10.0 ** (6.0 * spread)
    elif name == HOPF:  # near r = 1 or r^2 = 1/2, or near a tol level set
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        center, width = draw(st.sampled_from(HOPF_ZEROS if kind == "near" else HOPF_LEVELS))
        radius = center * (1.0 + (ULPS if kind == "ulps" else width) * spread)
    else:  # near an eigenvector of A^T S A, or anywhere, near the radius where H_P = tol
        if kind == "off":
            theta = draw(st.floats(0.0, 2.0 * math.pi))
        else:
            theta = draw(st.sampled_from(_directions(name))) + (1e-3 * spread if kind == "near" else 0.0)
        radius = _tol_radius(name, theta)
        if radius is None:
            radius = 10.0 ** (6.0 * spread)
        elif kind == "ulps":
            radius *= 1.0 + ULPS * spread
        else:  # 0.18 to 7 times the tol radius
            radius *= math.sqrt(10.0 ** draw(st.floats(-1.5, 1.7)))
    x1, x2 = radius * math.cos(theta), radius * math.sin(theta)
    return tuple(0.0 if abs(v) < 1e-30 else v for v in (x1, x2))


@pytest.mark.parametrize("name", list_systems())
def test_verdicts_equal_the_exact_verdicts(name):
    sys = get(name).system
    tol = Fraction(TOL)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.lists(points(name), min_size=5, max_size=30))
    def check(drawn):
        x1, x2 = (np.array(column) for column in zip(*drawn))
        rep = report_many(sys, x1, x2, zero_tol=TOL)
        if sys.friction is None:
            equilibrium = equilibrium_mask(x1, x2, *sys.field.evaluate_many(x1, x2))
        else:
            equilibrium = np.zeros(len(x1), dtype=bool)
        for i, point in enumerate(drawn):
            assert all(v == 0.0 or 1e-30 <= abs(v) <= 1e7 for v in point)
            div, div_bound, hp, hp_bound = _exact(name, *point)
            if equilibrium[i]:  # H_P is set to 0 there
                hp_bound = abs(hp)
            for computed, exact, bound, verdict, signed in (
                (rep.div_f[i], div, div_bound, rep.verdict_divergence[i], True),
                (rep.h_p[i], hp, hp_bound, rep.verdict_power[i], False),
            ):
                assert abs(Fraction(float(computed)) - exact) <= bound, (point, computed, exact, bound)
                if abs(abs(exact) - tol) > bound:
                    assert verdict == _exact_verdict(exact, tol, signed), (point, computed, exact, bound)

    check()
