"""Linear construction: gyration solve, assembly, potentials, case cross-checks."""

from __future__ import annotations

import math

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
    # tr^2 - 4 det overflows for these entries, or its squares leave the normal floats; the class and
    # the scaled eigenvalues must not change
    fixtures = (
        Matrix2.diagonal(-1.0, -2.0),
        Matrix2(0.0, 1.0, -1.0, 0.0),
        Matrix2(-1.0, 0.0, 1.0, -1.0),
        Matrix2.diagonal(-1.0, -1.0),
    )
    for a in fixtures:
        sc, big = classify_spectrum(a), classify_spectrum(a.scaled(factor))
        assert big.kind == sc.kind
        assert big.values == tuple(factor * v for v in sc.values)


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


def test_assemble_singular_diffusion_gyration():
    with pytest.raises(SingularMatrix):
        assemble_decomposition(Matrix2.diagonal(1.0, -1.0), DiffusionParams.zero(), 0.0)


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
