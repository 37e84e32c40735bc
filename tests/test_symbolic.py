"""The math checked against sympy: every formula is derived here from its definition.

For the builtin oscillator, f and phi are the only inputs. The divergence
(the trace of the Jacobian), the gradient, the frame scalars s and t (solved from
(s I + t J) f = -grad(phi)), the dual pair d and q (from inverting
s I + t J) and H_P = f^T S f are derived symbolically and evaluated in
50-digit arithmetic at seeded points. The catalog closures and
``ExpectedForms`` must match them to a relative 1e-12. For linear systems,
the scalar gyration constraint is derived from A Q + Q A^T = A D - D A^T
and compared with ``linear.constraint_rhs``.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from aodecomp import DiffusionParams, Matrix2, Point2, get, point_decomposition
from aodecomp.dissipation import power_many
from aodecomp.linear import constraint_rhs

REL = 1e-12
X1, X2 = sp.symbols("x1 x2", real=True)


def _hopf_forms() -> dict[str, sp.Expr]:
    r2 = X1**2 + X2**2
    f = sp.Matrix([-X2 + X1 * (1 - r2), X1 + X2 * (1 - r2)])
    phi = r2 * (r2 - 2) / 4
    grad = sp.Matrix([sp.diff(phi, X1), sp.diff(phi, X2)])
    s, t = sp.symbols("s t", real=True)
    j = sp.Matrix([[0, 1], [-1, 0]])
    frame = (s * sp.eye(2) + t * j) * f + grad
    sol = sp.solve(list(frame), [s, t], dict=True)[0]
    dual = (sol[s] * sp.eye(2) + sol[t] * j).inv()
    return {
        "phi": phi,
        "grad1": grad[0], "grad2": grad[1],
        "div": f.jacobian([X1, X2]).trace(),
        "s": sol[s], "t": sol[t],
        # D + Q = (S + T)^-1 with D = d I and Q = q J
        "d": dual[0, 0], "q": dual[0, 1],
        "h_p": sol[s] * (f.T * f)[0, 0],
    }


FORMS = _hopf_forms()
EXACT = {name: sp.lambdify((X1, X2), expr, modules="mpmath") for name, expr in FORMS.items()}


def _points() -> list[Point2]:
    """Seeded points off the origin (an equilibrium) and off the unit circle (where d, q are undefined)."""
    rng = np.random.default_rng(20261018)
    points = []
    while len(points) < 60:
        x = Point2(*(float(v) for v in rng.uniform(-2.0, 2.0, 2)))
        r2 = x.x1 * x.x1 + x.x2 * x.x2
        if r2 > 1e-2 and abs(1.0 - r2) > 1e-2:
            points.append(x)
    return points


POINTS = _points()


def exact(name: str, x: Point2) -> float:
    with mpmath.workdps(50):
        return float(EXACT[name](mpmath.mpf(x.x1), mpmath.mpf(x.x2)))


def assert_close(value: float, reference: float) -> None:
    assert abs(value - reference) <= REL * abs(reference), (value, reference)


def test_sympy_frame_solution_is_the_closed_form():
    # the solved frame scalars are the documented s and t, with d = 1 for this oscillator
    u = 1 - X1**2 - X2**2
    assert sp.simplify(FORMS["s"] - u**2 / (1 + u**2)) == 0
    assert sp.simplify(FORMS["t"] - u / (1 + u**2)) == 0
    assert sp.simplify(FORMS["d"] - 1) == 0
    assert sp.simplify(FORMS["q"] + 1 / u) == 0


@pytest.mark.parametrize("x", POINTS, ids=lambda x: f"{x.x1:.3f},{x.x2:.3f}")
def test_hopf_closures_match_sympy(x):
    sys = get("hopf_limit_cycle").system
    assert_close(sys.potential.evaluate(x), exact("phi", x))
    grad = sys.potential.gradient(x)
    assert_close(grad.x1, exact("grad1", x))
    assert_close(grad.x2, exact("grad2", x))
    assert_close(sys.field.divergence(x), exact("div", x))
    pd = point_decomposition(sys, x)
    for name, value in (("s", pd.friction), ("t", pd.transverse), ("d", pd.diffusion), ("q", pd.gyration)):
        assert_close(value, exact(name, x))
    h_p, _ = power_many(sys, np.array([x.x1]), np.array([x.x2]))
    assert_close(h_p[0].item(), exact("h_p", x))


@pytest.mark.parametrize("x", POINTS, ids=lambda x: f"{x.x1:.3f},{x.x2:.3f}")
def test_expected_forms_match_sympy(x):
    expected = get("hopf_limit_cycle").expected
    for name, value in (
        ("s", expected.friction(x)),
        ("t", expected.transverse(x)),
        ("d", expected.diffusion(x)),
        ("q", expected.gyration(x)),
        ("phi", expected.potential(x)),
        ("grad1", expected.potential_gradient(x).x1),
        ("grad2", expected.potential_gradient(x).x2),
        ("div", expected.divergence(x)),
        ("h_p", expected.dissipation_power(x)),
    ):
        assert_close(value, exact(name, x))


A = sp.Matrix(2, 2, sp.symbols("a11 a12 a21 a22", real=True))
D11, D12, D22, Q = sp.symbols("d11 d12 d22 q", real=True)


def _constraint() -> tuple[sp.Expr, sp.Expr]:
    """(coefficient of q, right-hand side) of A Q + Q A^T = A D - D A^T, read off its (1, 2) entry."""
    qm = Q * sp.Matrix([[0, 1], [-1, 0]])
    dm = sp.Matrix([[D11, D12], [D12, D22]])
    residual = sp.expand(A * qm + qm * A.T - (A * dm - dm * A.T))
    # both sides are antisymmetric, so the matrix equation is one scalar equation
    assert residual[0, 0] == 0 and residual[1, 1] == 0
    assert sp.expand(residual[0, 1] + residual[1, 0]) == 0
    poly = sp.Poly(residual[0, 1], Q)
    return poly.coeff_monomial(Q), sp.expand(-poly.coeff_monomial(1))


Q_COEFF, RHS = _constraint()


def test_constraint_coefficient_is_the_trace():
    assert sp.expand(Q_COEFF - A.trace()) == 0


def _rhs_at(a: Matrix2, d: DiffusionParams) -> sp.Expr:
    values = dict(zip(A, (a.a11, a.a12, a.a21, a.a22)))
    values.update({D11: d.d11, D12: d.d12, D22: d.d22})
    return RHS.subs({k: sp.Rational(v) for k, v in values.items()})


def test_constraint_rhs_matches_sympy_exactly_on_integer_inputs():
    # small integers keep every float product and sum exact, so the two polynomials must agree exactly
    rng = np.random.default_rng(20261018)
    checked = 0
    while checked < 200:
        a = Matrix2(*(float(v) for v in rng.integers(-5, 6, 4)))
        d11, d12, d22 = (float(v) for v in rng.integers(-5, 6, 3))
        if d11 < 0.0 or d22 < 0.0 or d11 * d22 < d12 * d12:
            continue
        checked += 1
        d = DiffusionParams(d11, d12, d22)
        assert constraint_rhs(a, d) == float(_rhs_at(a, d))


def test_constraint_rhs_matches_sympy_at_random_inputs():
    rng = np.random.default_rng(20261019)
    for _ in range(200):
        a = Matrix2(*(float(v) for v in rng.uniform(-2.0, 2.0, 4)))
        b = rng.uniform(-1.0, 1.0, (2, 2))
        m = b.T @ b
        d = DiffusionParams(float(m[0, 0]), float(m[0, 1]), float(m[1, 1]))
        reference = _rhs_at(a, d)
        # float rounding is relative to the three products, not to their possibly cancelling sum
        scale = abs(a.a21 * d.d11) + abs((a.a11 - a.a22) * d.d12) + abs(a.a12 * d.d22)
        assert abs(constraint_rhs(a, d) - float(reference)) <= REL * max(scale, math.ulp(1.0))
