"""Linear construction: gyration solve, assembly, potentials, case cross-checks."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from aodecomp import (
    AntisymScalar,
    AsymmetricU,
    DiffusionParams,
    Matrix2,
    Point2,
    SingularMatrix,
    assemble_decomposition,
    classify_spectrum,
    invert2,
    lyapunov_equation_residual,
    quadratic_potential,
    reconstruct_drift,
    solve_gyration,
)
from aodecomp.linear import (
    COMPLEX_PAIR,
    FAMILY,
    INCONSISTENT,
    REAL_DISTINCT,
    REPEATED_DEFECTIVE,
    REPEATED_DIAGONALIZABLE,
    UNIQUE,
)
from aodecomp.core import unit_copy
from aodecomp.tolerances import TRACE_ZERO_TOL
from helpers import dot, friction_power, random_diffusion, random_matrix_nonzero_trace, random_point


def test_classify_real_distinct():
    sc = classify_spectrum(Matrix2.diagonal(-1.0, -2.0))
    assert sc.kind == REAL_DISTINCT
    assert sc.values == (-1.0, -2.0)


def test_classify_complex_pair():
    sc = classify_spectrum(Matrix2(0.0, 1.0, -1.0, 0.0))
    assert sc.kind == COMPLEX_PAIR
    assert sc.values == (0.0, 1.0)  # beta reported positive


def test_classify_repeated_defective():
    sc = classify_spectrum(Matrix2(-1.0, 0.0, 1.0, -1.0))
    assert sc.kind == REPEATED_DEFECTIVE
    assert sc.values == (-1.0,)


def test_classify_repeated_diagonalizable():
    sc = classify_spectrum(Matrix2.diagonal(-1.0, -1.0))
    assert sc.kind == REPEATED_DIAGONALIZABLE
    assert sc.values == (-1.0,)


@pytest.mark.parametrize("factor", [1e200, 1e300, 1e-160, 1e-200, 1e-300])
def test_classify_scales_past_overflow_and_underflow(factor):
    # tr^2 - 4 det overflows for these entries, or its squares leave the normal floats; the class must not
    # change, and the eigenvalues are the power-of-two unit copy's scaled back (within rounding of factor * v,
    # since factor itself is no power of two)
    fixtures = (
        Matrix2.diagonal(-1.0, -2.0),
        Matrix2(0.0, 1.0, -1.0, 0.0),
        Matrix2(-1.0, 0.0, 1.0, -1.0),
        Matrix2.diagonal(-1.0, -1.0),
    )
    for a in fixtures:
        sc, scaled = classify_spectrum(a), a.scaled(factor)
        big = classify_spectrum(scaled)
        (a11, a12, a21, a22), e = unit_copy(scaled.a11, scaled.a12, scaled.a21, scaled.a22)
        unit = classify_spectrum(Matrix2(a11, a12, a21, a22))
        assert big.kind == unit.kind == sc.kind
        assert big.values == tuple(math.ldexp(v, e) for v in unit.values)
        for got, want in zip(big.values, sc.values, strict=True):
            assert math.isclose(got, factor * want, rel_tol=1e-15)


def test_classify_matches_numpy_eigvals():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = Matrix2(*(float(v) for v in rng.uniform(-3, 3, 4)))
        sc = classify_spectrum(a)
        eig = np.linalg.eigvals(np.array(a.rows()))
        if sc.kind == REAL_DISTINCT:
            got = sorted(sc.values, reverse=True)
            want = sorted(eig.real, reverse=True)
            assert abs(got[0] - want[0]) <= 1e-8 and abs(got[1] - want[1]) <= 1e-8
        elif sc.kind == COMPLEX_PAIR:
            alpha, beta = sc.values
            assert abs(alpha - eig[0].real) <= 1e-8
            assert abs(beta - abs(eig[0].imag)) <= 1e-8


def test_solve_gyration_unique_node():
    # (a11+a22) q = (a11-a22) d12 for a diagonal drift: q = (l1-l2)/(l1+l2) d12
    sol = solve_gyration(Matrix2.diagonal(-1.0, -2.0), DiffusionParams(1.0, 0.3, 1.0))
    assert sol.branch == UNIQUE
    assert abs(sol.q - (-0.1)) <= 1e-15


def test_solve_gyration_family_saddle():
    sol = solve_gyration(Matrix2.diagonal(1.0, -1.0), DiffusionParams.identity())
    assert sol.branch == FAMILY
    assert sol.q == 1.0
    assert "free parameter" in sol.note


def test_solve_gyration_inconsistent_center():
    sol = solve_gyration(Matrix2(0.0, 1.0, -1.0, 0.0), DiffusionParams.identity())
    assert sol.branch == INCONSISTENT
    assert sol.q is None
    assert sol.residual == 2.0
    assert "d11 = d22 = d12 = 0" in sol.note


def test_assemble_saddle_fixture():
    dec = assemble_decomposition(Matrix2.diagonal(1.0, -1.0), DiffusionParams.identity(), 1.0)
    assert (dec.friction - Matrix2.diagonal(0.5, 0.5)).max_abs() <= 1e-15
    assert abs(dec.transverse.q - (-0.5)) <= 1e-15
    assert (dec.potential_matrix - Matrix2(-0.5, -0.5, -0.5, 0.5)).max_abs() <= 1e-15


def test_assemble_repeated_diagonal_fixture():
    dec = assemble_decomposition(Matrix2.diagonal(-1.0, -1.0), DiffusionParams.identity(), 0.0)
    assert (dec.friction - Matrix2.identity()).max_abs() <= 1e-15
    assert dec.transverse.q == 0.0
    assert (dec.potential_matrix - Matrix2.identity()).max_abs() <= 1e-15


def test_assemble_zero_matrix_fixture():
    dec = assemble_decomposition(Matrix2.zero(), DiffusionParams.identity(), 0.0)
    assert dec.potential_matrix == Matrix2.zero()
    phi = dec.potential()
    rng = np.random.default_rng(2)
    for _ in range(20):
        assert phi.evaluate(random_point(rng)) == 0.0


def test_assemble_rejects_inconsistent_gyration():
    # trace != 0 pins q; any other value breaks the constraint
    with pytest.raises(AsymmetricU):
        assemble_decomposition(Matrix2.diagonal(-1.0, -2.0), DiffusionParams(1.0, 0.3, 1.0), 0.1)


def test_assemble_refuses_a_gyration_the_cli_refuses():
    # stable_node's q* + 1e-10: residual sqrt(2) * 3e-10 against the bound sqrt(2) * 1e-10 * 2 * (0.1 + 1)
    a, d = Matrix2.diagonal(-1.0, -2.0), DiffusionParams(1.0, 0.3, 1.0)
    q = solve_gyration(a, d).q + 1e-10
    with pytest.raises(AsymmetricU) as info:
        assemble_decomposition(a, d, q)
    assert info.value.residual == lyapunov_equation_residual(a, d, q)
    assert info.value.bound == math.sqrt(2.0) * TRACE_ZERO_TOL * 2.0 * (abs(q) + 1.0)
    assert info.value.residual > info.value.bound
    assert assemble_decomposition(a, d, q - 0.5e-10).constraint_residual <= info.value.bound


def test_assemble_singular_diffusion_gyration():
    with pytest.raises(SingularMatrix):
        assemble_decomposition(Matrix2.diagonal(1.0, -1.0), DiffusionParams.zero(), 0.0)


def _spelled_out(text: str) -> Fraction:
    """The exact value of a ``core.scaled_repr`` text ``m * 2**e`` that is spelled out."""
    mantissa, times, exponent = text.partition(" * 2**")
    assert times, text
    return Fraction(mantissa) * Fraction(2) ** int(exponent)


def test_refused_values_past_float64_are_spelled_out():
    # A Q + Q A^T - (A D - D A^T) = (trace(A) q - rhs) J, so the residual's square is 2 (trace(A) q - rhs)^2,
    # about 2.4e617 here, and the unmatched right-hand side is a12 * d22 = 1e600: both past float64. Each
    # printed value, squared, lies within a relative 1e-15 of its exact square
    close = Fraction(1, 10**15)

    def near(value: Fraction, square: Fraction) -> bool:
        return value > 0 and (1 - close) ** 2 * square <= value * value <= (1 + close) ** 2 * square

    q = -1e308
    with pytest.raises(AsymmetricU) as info:
        assemble_decomposition(Matrix2(1.0, 2.0, 3.0, 4.0), DiffusionParams.identity(), q)
    gap = 5 * Fraction(q) - (-3 + 0 + 2)  # trace(A) q - (-a21 d11 + (a11 - a22) d12 + a12 d22)
    assert math.isinf(info.value.residual)
    assert near(_spelled_out(info.value.shown[0]), 2 * gap * gap)
    assert info.value.shown[1] == repr(info.value.bound)  # about 5.7e298, an ordinary float

    sol = solve_gyration(Matrix2(1e300, 1e300, 0.0, -1e300), DiffusionParams(1e300, 0.0, 1e300))
    assert sol.branch == INCONSISTENT and math.isinf(sol.residual)
    label = "unmatched right-hand side "
    assert near(_spelled_out(sol.note[sol.note.index(label) + len(label):]), (Fraction(1e300) * Fraction(1e300)) ** 2)


def _exact_violation(a: Matrix2, d: DiffusionParams, q: float) -> bool:
    """Whether sqrt(2) |trace(A) q - rhs| exceeds sqrt(2) * TRACE_ZERO_TOL * max|A| * (|q| + max|D|), in rationals."""
    a11, a12, a21, a22, d11, d12, d22, q_ = map(Fraction, (a.a11, a.a12, a.a21, a.a22, d.d11, d.d12, d.d22, q))
    gap = (a11 + a22) * q_ - (-a21 * d11 + (a11 - a22) * d12 + a12 * d22)
    bound = Fraction(TRACE_ZERO_TOL) * Fraction(a.max_abs()) * (abs(q_) + Fraction(d.max_abs()))
    return abs(gap) > bound


def _two_route_outcome(a: Matrix2, d: DiffusionParams, q: float):
    """The judgment of q in rationals, then U and its asymmetry or the exception by the two routes
    -(D + Q)^(-1) A and -A^T (D - Q)^(-1)."""
    try:
        qm = AntisymScalar(q).matrix()
        if _exact_violation(a, d, q):
            return "AsymmetricU", "", ""
        u_forward = (invert2(d.matrix() + qm) @ a).scaled(-1.0)
        u_adjoint = (a.transpose() @ invert2(d.matrix() - qm)).scaled(-1.0)
        gap = (u_forward - u_adjoint).max_abs()
        return "ok", repr((u_forward + u_adjoint).scaled(0.5).rows()), repr(gap)
    except (SingularMatrix, ValueError) as exc:
        return _exception_outcome(exc)


def _exception_outcome(exc: Exception):
    if isinstance(exc, AsymmetricU):
        return "AsymmetricU", "", ""
    return type(exc).__name__, str(exc), ""


def _one_route_outcome(a: Matrix2, d: DiffusionParams, q: float):
    try:
        dec = assemble_decomposition(a, d, q)
    except (AsymmetricU, SingularMatrix, ValueError) as exc:
        return _exception_outcome(exc)
    return "ok", repr(dec.potential_matrix.rows()), repr(dec.potential_asymmetry)


def test_one_inversion_gives_the_two_route_potential_bit_for_bit():
    # -A^T (D - Q)^(-1) is the transpose of -(D + Q)^(-1) A, product for product, so U, its asymmetry and every
    # exception are the same by either route, and q is refused exactly where its residual exceeds the bound in
    # rationals (no draw lies within round-off of it); draws span 1e-150 to 1e150 in A, D and q (every fifth
    # 1e-300 to 1e300, where products overflow and underflow), with rank-1 and zero D
    rng = np.random.default_rng(2029)
    kinds = set()
    for i in range(3000):
        exponent = 300.0 if i % 5 == 0 else 150.0
        scale_a, scale_d = (10.0 ** float(v) for v in rng.uniform(-exponent, exponent, 2))
        a = Matrix2(*(scale_a * float(v) for v in rng.uniform(-1.0, 1.0, 4)))
        d11, d22 = (scale_d * float(v) for v in rng.uniform(0.0, 1.0, 2))
        rho = (-1.0, 1.0, float(rng.uniform(-1.0, 1.0)))[i % 3]
        d = DiffusionParams.zero() if i % 50 == 0 else DiffusionParams(d11, rho * math.sqrt(d11) * math.sqrt(d22), d22)
        sol = solve_gyration(a, d)
        q_star = 0.0 if sol.q is None else sol.q
        q = (q_star, q_star * (1.0 + 1e-12), scale_d * float(rng.normal()), 0.0)[i % 4]
        outcome = _one_route_outcome(a, d, q)
        assert outcome == _two_route_outcome(a, d, q)
        kinds.add(outcome[0])
    assert kinds == {"ok", "AsymmetricU", "SingularMatrix", "ValueError"}


def test_residual_zero_on_unique_branch():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = random_matrix_nonzero_trace(rng)
        d = random_diffusion(rng)
        sol = solve_gyration(a, d)
        assert sol.branch == UNIQUE
        assert lyapunov_equation_residual(a, d, sol.q) < 1e-10


def test_residual_zero_for_whole_family():
    a = Matrix2.diagonal(1.0, -1.0)
    d = DiffusionParams.identity()
    for q in (-3.0, -1.0, 0.0, 0.5, 7.0):
        assert lyapunov_equation_residual(a, d, q) < 1e-10


def test_residual_brute_force_oracle():
    # Independent oracle: build the four matrices explicitly with numpy and
    # take the Frobenius norm of A Q + Q A^T - A D + D A^T.
    a = np.array([[-1.0, 0.0], [0.0, -2.0]])
    d = np.array([[1.0, 0.3], [0.3, 1.0]])
    q_val = 0.1  # wrong sign: the solved value is -0.1
    q = np.array([[0.0, q_val], [-q_val, 0.0]])
    oracle = np.linalg.norm(a @ q + q @ a.T - a @ d + d @ a.T, "fro")
    got = lyapunov_equation_residual(
        Matrix2.diagonal(-1.0, -2.0), DiffusionParams(1.0, 0.3, 1.0), q_val
    )
    assert abs(got - oracle) <= 1e-12
    # residual matrix is (trace*q - rhs) * [[0,1],[-1,0]], so the norm is
    # sqrt(2) * |trace| * |q - q_solved| = sqrt(2) * 0.6
    assert abs(got - math.sqrt(2.0) * 0.6) <= 1e-12


def test_quadratic_potential_fixtures():
    phi = quadratic_potential(Matrix2.identity())
    assert phi.evaluate(Point2(1.0, 1.0)) == 1.0
    assert phi.gradient(Point2(1.0, 1.0)) == Point2(1.0, 1.0)

    saddle_u = Matrix2(-0.5, -0.5, -0.5, 0.5)
    phi = quadratic_potential(saddle_u)
    assert phi.evaluate(Point2(1.0, 0.0)) == -0.25
    assert phi.gradient(Point2(1.0, 0.0)) == Point2(-0.5, -0.5)

    phi = quadratic_potential(Matrix2.zero())
    assert phi.evaluate(Point2(3.0, -4.0)) == 0.0


def test_quadratic_potential_gradient_is_analytic():
    rng = np.random.default_rng(23)
    u = Matrix2(1.2, -0.4, -0.4, 0.7)
    phi = quadratic_potential(u)
    assert phi.gradient_fn is not None
    for _ in range(50):
        x = random_point(rng)
        fd = Point2(
            (phi.evaluate(Point2(x.x1 + 1e-6, x.x2)) - phi.evaluate(Point2(x.x1 - 1e-6, x.x2))) / 2e-6,
            (phi.evaluate(Point2(x.x1, x.x2 + 1e-6)) - phi.evaluate(Point2(x.x1, x.x2 - 1e-6))) / 2e-6,
        )
        assert (phi.gradient(x) - fd).norm() <= 1e-5 * (1.0 + fd.norm())


def test_reconstruct_drift_fixtures():
    saddle = assemble_decomposition(Matrix2.diagonal(1.0, -1.0), DiffusionParams.identity(), 1.0)
    assert (reconstruct_drift(saddle, Point2(1.0, 0.0)) - Point2(1.0, 0.0)).norm() <= 1e-12
    assert reconstruct_drift(saddle, Point2(0.0, 0.0)) == Point2(0.0, 0.0)

    node = assemble_decomposition(Matrix2.diagonal(-1.0, -2.0), DiffusionParams(1.0, 0.3, 1.0), -0.1)
    assert (reconstruct_drift(node, Point2(1.0, 1.0)) - Point2(-1.0, -2.0)).norm() <= 1e-12


def test_random_decompositions_satisfy_frame_identities():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a = random_matrix_nonzero_trace(rng)
        d = random_diffusion(rng)
        sol = solve_gyration(a, d)
        dec = assemble_decomposition(a, d, sol.q)
        s_plus_t = dec.friction + dec.transverse.matrix()
        u = dec.potential_matrix
        assert dec.potential_asymmetry <= 1e-9 * (1.0 + u.max_abs())
        # friction is positive semidefinite
        assert dec.friction.trace >= -1e-12
        assert dec.friction.det >= -1e-12
        for _ in range(5):
            x = random_point(rng)
            xdot = a.apply(x)
            # (S + T) x' = -U x
            lhs = s_plus_t.apply(xdot)
            rhs = u.apply(x)
            assert (lhs + rhs).norm() <= 1e-9 * (1.0 + rhs.norm())
            # |d(phi)/dt| equals the dissipation power
            rate = dot(u.apply(x), xdot)
            power = friction_power(dec.friction, xdot.x1, xdot.x2)[0]
            assert abs(abs(rate) - power) <= 1e-9 * (1.0 + abs(rate))


def test_stable_fixtures_have_nonincreasing_potential():
    rng = np.random.default_rng(29)
    fixtures = [
        (Matrix2.diagonal(-1.0, -2.0), DiffusionParams(1.0, 0.3, 1.0), -0.1),
        (Matrix2.diagonal(-1.0, -1.0), DiffusionParams.identity(), 0.0),
        (Matrix2(-1.0, 0.0, 1.0, -1.0), DiffusionParams.identity(), 0.5),
        (Matrix2(-0.5, 1.0, -1.0, -0.5), DiffusionParams.identity(), -2.0),
        (Matrix2(0.0, 1.0, -1.0, 0.0), DiffusionParams.zero(), 1.0),
    ]
    for a, d, q in fixtures:
        dec = assemble_decomposition(a, d, q)
        u = dec.potential_matrix
        for _ in range(1000):
            x = random_point(rng)
            assert dot(u.apply(x), a.apply(x)) <= 1e-12


# Closed-form cross-checks for the four normal-form cases. Each form below
# was verified against the identity-based construction; where a published
# variant disagrees with the construction the identity wins and the corrected
# denominator is used (see in-line notes).


def _adj(d: DiffusionParams) -> Matrix2:
    return Matrix2(d.d22, -d.d12, -d.d12, d.d11)


def test_case_distinct_real_closed_forms():
    rng = np.random.default_rng(31)
    for _ in range(20):
        l1, l2 = sorted(rng.uniform(-3, 3, 2), reverse=True)
        if abs(l1 - l2) < 0.1 or abs(l1 + l2) < 0.1:
            continue
        d = random_diffusion(rng)
        a = Matrix2.diagonal(float(l1), float(l2))
        sol = solve_gyration(a, d)
        q_expected = (l1 - l2) / (l1 + l2) * d.d12
        assert abs(sol.q - q_expected) <= 1e-9 * (1.0 + abs(q_expected))
        dec = assemble_decomposition(a, d, sol.q)
        denom = (l1 + l2) ** 2 * d.d11 * d.d22 - 4.0 * l1 * l2 * d.d12**2
        s_expected = _adj(d).scaled((l1 + l2) ** 2 / denom)
        assert (dec.friction - s_expected).max_abs() <= 1e-9
        u_expected = Matrix2(
            l1 * d.d22, -2.0 * l1 * l2 * d.d12 / (l1 + l2),
            -2.0 * l1 * l2 * d.d12 / (l1 + l2), l2 * d.d11,
        ).scaled(-((l1 + l2) ** 2) / denom)
        assert (dec.potential_matrix - u_expected).max_abs() <= 1e-9


def test_case_trace_zero_closed_forms():
    rng = np.random.default_rng(37)
    for _ in range(20):
        l1 = float(rng.uniform(0.1, 3.0))
        d11, d22 = (float(v) for v in rng.uniform(0.1, 2.0, 2))
        q = float(rng.uniform(-2.0, 2.0))
        d = DiffusionParams(d11, 0.0, d22)  # zero trace forces d12 = 0
        a = Matrix2.diagonal(l1, -l1)
        dec = assemble_decomposition(a, d, q)
        denom = d11 * d22 + q * q
        s_expected = Matrix2.diagonal(d22 / denom, d11 / denom)
        assert (dec.friction - s_expected).max_abs() <= 1e-9
        u_expected = Matrix2(d22, q, q, -d11).scaled(-l1 / denom)
        assert (dec.potential_matrix - u_expected).max_abs() <= 1e-9


def test_case_repeated_diagonalizable_closed_forms():
    rng = np.random.default_rng(41)
    for _ in range(20):
        l1 = float(rng.uniform(-3.0, -0.1))
        d = random_diffusion(rng)
        a = Matrix2.diagonal(l1, l1)
        sol = solve_gyration(a, d)
        assert abs(sol.q) <= 1e-12
        dec = assemble_decomposition(a, d, sol.q)
        # denominator is det(D) = d11 d22 - d12^2 for both S and U; a variant
        # with +d12^2 in U fails the identity and is a typo
        s_expected = _adj(d).scaled(1.0 / d.det)
        assert (dec.friction - s_expected).max_abs() <= 1e-9
        u_expected = _adj(d).scaled(-l1 / d.det)
        assert (dec.potential_matrix - u_expected).max_abs() <= 1e-9


def test_case_defective_closed_forms():
    rng = np.random.default_rng(43)
    for _ in range(20):
        l1 = float(rng.uniform(0.2, 3.0)) * float(rng.choice([-1.0, 1.0]))
        d = random_diffusion(rng)
        a = Matrix2(l1, 0.0, 1.0, l1)
        sol = solve_gyration(a, d)
        q_expected = -d.d11 / (2.0 * l1)
        assert abs(sol.q - q_expected) <= 1e-9 * (1.0 + abs(q_expected))
        dec = assemble_decomposition(a, d, sol.q)
        denom = 4.0 * l1**2 * (d.d11 * d.d22 - d.d12**2) + d.d11**2
        s_expected = _adj(d).scaled(4.0 * l1**2 / denom)
        assert (dec.friction - s_expected).max_abs() <= 1e-9


def test_case_nilpotent_closed_forms():
    rng = np.random.default_rng(47)
    for _ in range(20):
        d22 = float(rng.uniform(0.1, 3.0))
        q = float(rng.uniform(0.2, 3.0)) * float(rng.choice([-1.0, 1.0]))
        a = Matrix2(0.0, 0.0, 1.0, 0.0)
        dec = assemble_decomposition(a, DiffusionParams(0.0, 0.0, d22), q)
        s_expected = Matrix2(d22 / q**2, 0.0, 0.0, 0.0)
        assert (dec.friction - s_expected).max_abs() <= 1e-9
        u_expected = Matrix2(1.0 / q, 0.0, 0.0, 0.0)
        assert (dec.potential_matrix - u_expected).max_abs() <= 1e-9


def test_case_complex_pair_closed_forms():
    rng = np.random.default_rng(53)
    for _ in range(20):
        alpha = float(rng.uniform(0.2, 2.0)) * float(rng.choice([-1.0, 1.0]))
        beta = float(rng.uniform(0.2, 2.0)) * float(rng.choice([-1.0, 1.0]))
        d = random_diffusion(rng)
        a = Matrix2(alpha, beta, -beta, alpha)
        sol = solve_gyration(a, d)
        q_expected = beta * (d.d11 + d.d22) / (2.0 * alpha)
        assert abs(sol.q - q_expected) <= 1e-9 * (1.0 + abs(q_expected))
        dec = assemble_decomposition(a, d, sol.q)
        denom = 4.0 * alpha**2 * (d.d11 * d.d22 - d.d12**2) + beta**2 * (d.d11 + d.d22) ** 2
        s_expected = _adj(d).scaled(4.0 * alpha**2 / denom)
        assert (dec.friction - s_expected).max_abs() <= 1e-9 * (1.0 + s_expected.max_abs())
        off = -d.d12 * alpha + beta * (d.d22 - d.d11) / 2.0
        u_expected = Matrix2(
            d.d22 * alpha + d.d12 * beta + beta**2 * (d.d11 + d.d22) / (2.0 * alpha),
            off,
            off,
            d.d11 * alpha - d.d12 * beta + beta**2 * (d.d11 + d.d22) / (2.0 * alpha),
        ).scaled(-4.0 * alpha**2 / denom)
        assert (dec.potential_matrix - u_expected).max_abs() <= 1e-9 * (1.0 + u_expected.max_abs())


def test_case_center_closed_forms():
    rng = np.random.default_rng(59)
    for _ in range(20):
        beta = float(rng.uniform(0.2, 2.0)) * float(rng.choice([-1.0, 1.0]))
        q = float(rng.uniform(0.2, 2.0)) * float(rng.choice([-1.0, 1.0]))
        a = Matrix2(0.0, beta, -beta, 0.0)
        dec = assemble_decomposition(a, DiffusionParams.zero(), q)
        assert dec.friction.max_abs() <= 1e-15
        u_expected = Matrix2.identity().scaled(-beta / q)
        assert (dec.potential_matrix - u_expected).max_abs() <= 1e-12


def test_antisym_scalar_encodes_antisymmetric_matrix():
    m = AntisymScalar(2.5).matrix()
    assert m.a12 == -m.a21 == 2.5
    assert m.a11 == m.a22 == 0.0
