"""Core substrate: splits, inversion, diffusion validation, field fallbacks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aodecomp import (
    DiffusionParams,
    Matrix2,
    Point2,
    ScalarField,
    SingularMatrix,
    VectorField,
    central_gradient,
    invert2,
    sym_antisym_split,
)
from helpers import random_matrix


def test_split_symmetric_input():
    sym, anti = sym_antisym_split(Matrix2.identity())
    assert sym == Matrix2.identity()
    assert anti.q == 0.0


def test_split_antisymmetric_input():
    sym, anti = sym_antisym_split(Matrix2(0.0, 1.0, -1.0, 0.0))
    assert sym == Matrix2.zero()
    assert anti.q == 1.0


def test_split_mixed_input():
    # (M + M^T)/2 and (M - M^T)/2 computed by hand for [[1,1],[-1,1]]
    sym, anti = sym_antisym_split(Matrix2(1.0, 1.0, -1.0, 1.0))
    assert sym == Matrix2.identity()
    assert anti.q == 1.0


def test_split_reassembles_and_sym_is_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = random_matrix(rng, -5.0, 5.0)
        sym, anti = sym_antisym_split(m)
        assert sym.a12 == sym.a21
        back = sym + anti.matrix()
        assert (back - m).max_abs() <= 1e-15 * (1.0 + m.max_abs())


def test_invert2_identity():
    assert invert2(Matrix2.identity()) == Matrix2.identity()


def test_invert2_fixture():
    # adjugate/determinant by hand: det = 2
    inv = invert2(Matrix2(1.0, 1.0, -1.0, 1.0))
    assert inv == Matrix2(0.5, -0.5, 0.5, 0.5)


def test_invert2_singular():
    with pytest.raises(SingularMatrix) as excinfo:
        invert2(Matrix2.zero())
    assert excinfo.value.det == 0.0


def test_invert2_roundtrip():
    rng = np.random.default_rng(11)
    count = 0
    while count < 200:
        m = random_matrix(rng)
        if abs(m.det) < 1e-3:
            continue
        count += 1
        prod = m @ invert2(m)
        assert (prod - Matrix2.identity()).max_abs() <= 1e-12 * (1.0 + m.max_abs() ** 2)
        assert (invert2(invert2(m)) - m).max_abs() <= 1e-9


def test_diffusion_accepts_boundary():
    DiffusionParams.identity()
    DiffusionParams.zero()
    DiffusionParams(1.0, 1.0, 1.0)  # det exactly zero
    DiffusionParams(2.0, -1.0, 1.0)


def test_diffusion_accepts_rank_one_outer_products():
    # d11*d22 - d12^2 of outer(v, v) rounds below zero for about 28% of these draws
    v = np.random.default_rng(20261018).standard_normal((10000, 2))
    for a, b in v.tolist():
        DiffusionParams(a * a, a * b, b * b)


@pytest.mark.parametrize(
    "triple",
    [(-1.0, 0.0, 1.0), (1.0, 0.0, -1.0), (1.0, 2.0, 1.0), (0.0, 0.1, 0.0), (-1e-300, 0.0, 1.0)],
)
def test_diffusion_rejects_invalid(triple):
    with pytest.raises(ValueError):
        DiffusionParams(*triple)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_rejected(bad):
    with pytest.raises(ValueError):
        Point2(bad, 0.0)
    with pytest.raises(ValueError):
        Matrix2(1.0, bad, 0.0, 1.0)
    with pytest.raises(ValueError):
        DiffusionParams(1.0, bad, 1.0)


def test_central_gradient_matches_analytic():
    phi = ScalarField(
        lambda x1, x2: math.sin(x1) * math.cos(x2) + x1 * x2**2,
        gradient_fn=lambda x1, x2: (
            math.cos(x1) * math.cos(x2) + x2**2,
            -math.sin(x1) * math.sin(x2) + 2.0 * x1 * x2,
        ),
    )
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = Point2(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        exact = phi.gradient(x)
        approx = Point2(*central_gradient(phi.fn, x.x1, x.x2))
        assert (approx - exact).norm() <= 1e-5 * (1.0 + exact.norm())


def test_scalar_field_fallback_flag():
    with_grad = ScalarField(lambda x1, x2: x1, gradient_fn=lambda x1, x2: (1.0, 0.0))
    without = ScalarField(lambda x1, x2: x1)
    assert with_grad.has_analytic_gradient
    assert not without.has_analytic_gradient
    g = without.gradient(Point2(0.3, -0.7))
    assert abs(g.x1 - 1.0) <= 1e-9 and abs(g.x2) <= 1e-9


def test_vector_field_divergence_fallback():
    field = VectorField(lambda x1, x2: (x1**2, -3.0 * x2))
    x = Point2(0.8, -1.1)
    assert abs(field.divergence(x) - (2.0 * x.x1 - 3.0)) <= 1e-6


def test_vector_field_jacobian_fallback():
    field = VectorField(lambda x1, x2: (x1 * x2, x1 - x2))
    x = Point2(0.4, 1.5)
    jac = field.jacobian(x)
    expected = Matrix2(x.x2, x.x1, 1.0, -1.0)
    assert (jac - expected).max_abs() <= 1e-6
