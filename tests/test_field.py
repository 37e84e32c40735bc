"""Pointwise friction/transverse construction and its frame identities."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aodecomp import (
    EquilibriumPoint,
    MissingPotential,
    Point2,
    ScalarField,
    SystemSpec,
    VectorField,
    decompose_many,
    get,
    list_systems,
    point_decomposition,
)
from aodecomp.field import friction_at, transverse_at
from helpers import gradient_flow_system, random_point


@pytest.fixture(scope="module")
def hopf():
    return get("hopf_limit_cycle")


def _frame(sys: SystemSpec, x: Point2) -> tuple[float, float, float, float]:
    """f and grad(phi) at x, as the coordinates friction_at and transverse_at take."""
    f, g = sys.field.evaluate(x), sys.potential.gradient(x)
    return f.x1, f.x2, g.x1, g.x2


def _constant_field(f1: float, f2: float) -> SystemSpec:
    phi = ScalarField(lambda x1, x2: x1 + 2.0 * x2, gradient_fn=lambda x1, x2: (1.0, 2.0))
    return SystemSpec("constant", VectorField(lambda x1, x2: (f1, f2)), potential=phi)


def test_friction_fixture(hopf):
    # r^2 = 1/4: s = (3/4)^2 / (1 + (3/4)^2) = 0.36
    assert abs(friction_at(*_frame(hopf.system, Point2(0.5, 0.0))) - 0.36) <= 1e-15


def test_friction_zero_when_gradient_perpendicular():
    assert friction_at(1.0, 0.0, 0.0, 2.0) == 0.0


def test_friction_zero_on_cycle(hopf):
    assert friction_at(*_frame(hopf.system, Point2(1.0, 0.0))) == 0.0


def test_transverse_fixture(hopf):
    # r^2 = 1/4: t = (3/4) / (1 + (3/4)^2) = 0.48
    assert abs(transverse_at(*_frame(hopf.system, Point2(0.5, 0.0))) - 0.48) <= 1e-15


def test_transverse_zero_for_gradient_flow():
    assert transverse_at(0.7, -0.3, -0.7, 0.3) == 0.0


@pytest.mark.parametrize("zero", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
def test_equilibrium_rejected(zero):
    # a field that vanishes everywhere, with either sign of zero: every point is an equilibrium
    still = _constant_field(*zero)
    with pytest.raises(EquilibriumPoint):
        point_decomposition(still, Point2(0.3, -0.4))
    cols = decompose_many(still, np.array([0.3, 0.0]), np.array([-0.4, 0.0]))
    assert cols.equilibrium.tolist() == [True, True]
    for column in (cols.g1, cols.g2, cols.friction, cols.transverse, cols.diffusion, cols.gyration):
        assert np.isnan(column).all()
    assert not cols.singular_on_isopotential.any()


def test_frame_residual_at_random_points(hopf):
    # brute-force residual oracle: (s I + t J) f + grad(phi) must vanish
    rng = np.random.default_rng(61)
    checked = 0
    while checked < 200:
        x = random_point(rng)
        f = hopf.system.field.evaluate(x)
        if f.norm() <= 1e-8:
            continue
        checked += 1
        g = hopf.system.potential.gradient(x)
        s = friction_at(f.x1, f.x2, g.x1, g.x2)
        t = transverse_at(f.x1, f.x2, g.x1, g.x2)
        res = Point2(s * f.x1 + t * f.x2 + g.x1, -t * f.x1 + s * f.x2 + g.x2)
        assert res.norm() <= 1e-10 * (1.0 + g.norm())


def test_point_decomposition_fixture(hopf):
    pd = point_decomposition(hopf.system, Point2(0.5, 0.0))
    assert abs(pd.friction - 0.36) <= 1e-15
    assert abs(pd.transverse - 0.48) <= 1e-15
    assert abs(pd.diffusion - 1.0) <= 1e-12
    assert abs(pd.gyration - (-4.0 / 3.0)) <= 1e-12
    assert not pd.singular_on_isopotential


def test_point_decomposition_oracle_inversion(hopf):
    # independent route: invert s*I + t*J numerically with numpy
    pd = point_decomposition(hopf.system, Point2(0.5, 0.0))
    m = np.array([[pd.friction, pd.transverse], [-pd.transverse, pd.friction]])
    inv = np.linalg.inv(m)
    assert abs(pd.diffusion - inv[0, 0]) <= 1e-12
    assert abs(pd.gyration - inv[0, 1]) <= 1e-12


def test_point_decomposition_singular_on_cycle(hopf):
    pd = point_decomposition(hopf.system, Point2(1.0, 0.0))
    assert pd.singular_on_isopotential
    assert pd.friction == 0.0 and pd.transverse == 0.0
    assert pd.diffusion is None and pd.gyration is None


def test_point_decomposition_gradient_flow():
    pd = point_decomposition(gradient_flow_system(), Point2(1.0, 1.0))
    assert abs(pd.friction - 1.0) <= 1e-15
    assert abs(pd.transverse) <= 1e-15
    assert abs(pd.diffusion - 1.0) <= 1e-12
    assert abs(pd.gyration) <= 1e-12


def test_point_decomposition_requires_potential():
    bare = SystemSpec("bare", VectorField(lambda x1, x2: (1.0, 0.0)))
    with pytest.raises(MissingPotential):
        point_decomposition(bare, Point2(0.0, 0.0))


def test_point_decomposition_rejects_equilibrium(hopf):
    with pytest.raises(EquilibriumPoint):
        point_decomposition(hopf.system, Point2(0.0, 0.0))


def test_inverse_frame_identity(hopf):
    # where diffusion/gyration exist: -(d I + q J) grad(phi) = f
    rng = np.random.default_rng(67)
    checked = 0
    while checked < 200:
        x = random_point(rng)
        try:
            pd = point_decomposition(hopf.system, x)
        except EquilibriumPoint:
            continue
        if pd.singular_on_isopotential:
            continue
        checked += 1
        d, q, g = pd.diffusion, pd.gyration, pd.potential_gradient
        rebuilt = Point2(-(d * g.x1 + q * g.x2), -(-q * g.x1 + d * g.x2))
        assert (rebuilt - pd.drift).norm() <= 1e-9 * (1.0 + pd.drift.norm())


def test_transverse_part_does_no_work(hopf):
    rng = np.random.default_rng(71)
    for _ in range(100):
        x = random_point(rng)
        f = hopf.system.field.evaluate(x)
        if f.norm() <= 1e-8:
            continue
        g = hopf.system.potential.gradient(x)
        t = transverse_at(f.x1, f.x2, g.x1, g.x2)
        work = (t * f.x2) * f.x1 + (-t * f.x1) * f.x2
        assert abs(work) <= 1e-12 * (1.0 + f.norm() ** 2)


def test_cycle_is_zero_friction_isopotential_locus(hopf):
    # 100 points on the unit circle: friction and potential gradient vanish
    for k in range(100):
        theta = 2.0 * math.pi * k / 100.0
        x = Point2(math.cos(theta), math.sin(theta))
        f = hopf.system.field.evaluate(x)
        g = hopf.system.potential.gradient(x)
        assert g.norm() <= 1e-12
        assert abs(friction_at(f.x1, f.x2, g.x1, g.x2)) <= 1e-12


OVERFLOW_POINTS = [Point2(1e200, 0.0), Point2(-3e250, 7e249), Point2(1e300, 1e300)]


def _rel_close(value, reference) -> bool:
    if reference is None:
        return value is None
    return abs(value - reference) <= 1e-14 * abs(reference)


@pytest.mark.parametrize("name", [n for n in list_systems() if get(n).decomposition is not None and n != "zero_matrix"])
@pytest.mark.parametrize("x", OVERFLOW_POINTS, ids=lambda x: f"{x.x1:g},{x.x2:g}")
def test_point_decomposition_where_frame_products_overflow(name, x):
    # f . f overflows at these points while f and grad(phi) stay finite; for a
    # linear system s and t are invariant under scaling x, so the point scaled
    # to max|x_i| = 1 is the reference
    sys = get(name).system
    pd = point_decomposition(sys, x)
    ref = point_decomposition(sys, x.scaled(1.0 / max(abs(x.x1), abs(x.x2))))
    for field in ("friction", "transverse", "diffusion", "gyration"):
        assert _rel_close(getattr(pd, field), getattr(ref, field)), (field, getattr(pd, field), getattr(ref, field))
    assert pd.singular_on_isopotential == ref.singular_on_isopotential


def test_point_decomposition_overflow_with_zero_gradient():
    flat = SystemSpec(
        "flat", VectorField(lambda x1, x2: (-x1, -x2)), ScalarField(lambda x1, x2: 0.0, lambda x1, x2: (0.0, 0.0))
    )
    pd = point_decomposition(flat, Point2(1e200, 0.0))
    assert pd.friction == 0.0 and pd.transverse == 0.0
    assert pd.singular_on_isopotential


@pytest.mark.parametrize("v", [5e-324, 1e-300, 1e-10, 1.0, 1e300])
@pytest.mark.parametrize("axis", [0, 1])
def test_every_nonzero_field_has_a_frame(axis, v):
    # f = (v, 0) or (0, -v) and grad(phi) = (v, 2v): (s, t) is (-1, 2) or (2, 1)
    # exactly, whatever the size of v, subnormal included
    f = (v, 0.0) if axis == 0 else (0.0, -v)
    phi = ScalarField(lambda x1, x2: v * (x1 + 2.0 * x2), gradient_fn=lambda x1, x2: (v, 2.0 * v))
    sys = SystemSpec("constant", VectorField(lambda x1, x2: f), potential=phi)
    pd = point_decomposition(sys, Point2(0.0, 0.0))
    assert (pd.friction, pd.transverse) == ((-1.0, 2.0) if axis == 0 else (2.0, 1.0))
