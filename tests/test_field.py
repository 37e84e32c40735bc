"""Pointwise friction/transverse construction and its frame identities."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aodecomp import (
    EquilibriumPoint,
    MissingPotential,
    Point2,
    SystemSpec,
    VectorField,
    friction_scalar,
    get,
    point_decomposition,
    transverse_scalar,
)
from helpers import gradient_flow_system, random_point


@pytest.fixture(scope="module")
def hopf():
    return get("hopf_limit_cycle")


def test_friction_fixture(hopf):
    # r^2 = 1/4: s = (3/4)^2 / (1 + (3/4)^2) = 0.36
    x = Point2(0.5, 0.0)
    f = hopf.system.field.evaluate(x)
    g = hopf.system.potential.gradient(x)
    assert abs(friction_scalar(f, g) - 0.36) <= 1e-15


def test_friction_zero_when_gradient_perpendicular():
    assert friction_scalar(Point2(1.0, 0.0), Point2(0.0, 2.0)) == 0.0


def test_friction_zero_on_cycle(hopf):
    x = Point2(1.0, 0.0)
    f = hopf.system.field.evaluate(x)
    g = hopf.system.potential.gradient(x)
    assert friction_scalar(f, g) == 0.0


def test_transverse_fixture(hopf):
    # r^2 = 1/4: t = (3/4) / (1 + (3/4)^2) = 0.48
    x = Point2(0.5, 0.0)
    f = hopf.system.field.evaluate(x)
    g = hopf.system.potential.gradient(x)
    assert abs(transverse_scalar(f, g) - 0.48) <= 1e-15


def test_transverse_zero_for_gradient_flow():
    f = Point2(0.7, -0.3)
    assert transverse_scalar(f, -f) == 0.0


def test_equilibrium_rejected():
    with pytest.raises(EquilibriumPoint):
        friction_scalar(Point2(0.0, 0.0), Point2(1.0, 0.0))
    with pytest.raises(EquilibriumPoint):
        transverse_scalar(Point2(0.0, 0.0), Point2(1.0, 0.0))


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
        s = friction_scalar(f, g)
        t = transverse_scalar(f, g)
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
        t = transverse_scalar(f, g)
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
        assert abs(friction_scalar(f, g)) <= 1e-12
