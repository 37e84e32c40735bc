"""Catalog registry: the 9 builtin systems and their reference closures."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aodecomp import (
    EquilibriumPoint,
    Point2,
    UnknownSystem,
    get,
    list_systems,
    lyapunov_equation_residual,
    phi_rate,
    point_decomposition,
    radial_solution,
)
from helpers import dot, random_point

EXPECTED_NAMES = [
    "hopf_limit_cycle",
    "stable_node",
    "saddle_tracezero",
    "repeated_diagonal",
    "zero_matrix",
    "defective",
    "defective_nilpotent",
    "stable_spiral",
    "center_conservative",
]


def test_list_contains_all_nine():
    names = list_systems()
    assert names == EXPECTED_NAMES


def test_unknown_system():
    with pytest.raises(UnknownSystem):
        get("not_a_system")


def test_provenance_nonempty():
    for name in list_systems():
        assert get(name).provenance


def test_linear_entries_satisfy_constraint():
    for name in list_systems():
        entry = get(name)
        if entry.decomposition is None:
            continue
        dec = entry.decomposition
        assert lyapunov_equation_residual(dec.a, dec.diffusion, dec.gyration) < 1e-10
        # friction + transverse inverts diffusion + gyration
        prod = (dec.friction + dec.transverse.matrix()) @ (
            dec.diffusion.matrix() + dec.gyration.matrix()
        )
        from aodecomp import Matrix2

        assert (prod - Matrix2.identity()).max_abs() <= 1e-10


def test_hopf_expected_closures_match_field_construction():
    entry = get("hopf_limit_cycle")
    exp = entry.expected
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 200:
        x = random_point(rng)
        f = entry.system.field.evaluate(x)
        if f.norm() <= 1e-6 or abs(1.0 - (x.x1**2 + x.x2**2)) <= 1e-6:
            continue
        checked += 1
        pd = point_decomposition(entry.system, x)
        assert abs(pd.friction - exp.friction(x)) <= 1e-10
        assert abs(pd.transverse - exp.transverse(x)) <= 1e-10
        assert abs(pd.diffusion - exp.diffusion(x)) <= 1e-10 * (1.0 + abs(exp.diffusion(x)))
        assert abs(pd.gyration - exp.gyration(x)) <= 1e-10 * (1.0 + abs(exp.gyration(x)))
        assert abs(entry.system.potential.evaluate(x) - exp.potential(x)) <= 1e-12
        assert (entry.system.potential.gradient(x) - exp.potential_gradient(x)).norm() <= 1e-12
        assert abs(entry.system.field.divergence(x) - exp.divergence(x)) <= 1e-12


def test_hopf_frame_identities_at_500_points():
    entry = get("hopf_limit_cycle")
    exp = entry.expected
    rng = np.random.default_rng(107)
    checked = 0
    while checked < 500:
        x = random_point(rng)
        f = entry.system.field.evaluate(x)
        if f.norm() <= 1e-8:
            continue
        checked += 1
        r2 = x.x1**2 + x.x2**2
        g = entry.system.potential.gradient(x)
        s, t = exp.friction(x), exp.transverse(x)
        # (S + T) f = -grad(phi)
        res = Point2(s * f.x1 + t * f.x2 + g.x1, -t * f.x1 + s * f.x2 + g.x2)
        assert res.norm() <= 1e-10 * (1.0 + g.norm())
        # d(phi)/dt = -r^2 (r^2 - 1)^2 and H_P = +r^2 (r^2 - 1)^2
        rate = phi_rate(entry.system, x)
        assert abs(rate - (-(r2) * (r2 - 1.0) ** 2)) <= 1e-10 * (1.0 + abs(rate))
        assert abs(exp.dissipation_power(x) - s * dot(f, f)) <= 1e-10 * (1.0 + abs(rate))
        # divergence closed form 2 (1 - 2 r^2)
        assert abs(exp.divergence(x) - 2.0 * (1.0 - 2.0 * r2)) <= 1e-12


def test_linear_entries_drift_matches_matrix():
    rng = np.random.default_rng(109)
    for name in list_systems():
        entry = get(name)
        if entry.decomposition is None:
            continue
        for _ in range(20):
            x = random_point(rng)
            assert (entry.system.field.evaluate(x) - entry.decomposition.a.apply(x)).norm() == 0.0


def test_hopf_equilibrium_is_only_origin():
    entry = get("hopf_limit_cycle")
    with pytest.raises(EquilibriumPoint):
        point_decomposition(entry.system, Point2(0.0, 0.0))


def test_radial_solution_solves_radial_ode():
    # oracle check: the closed form must satisfy d(rho)/dt = 2 rho (1 - rho)
    for r0 in (0.1, 0.5, 0.9, 1.0, 1.5, 2.0):
        for t in (0.0, 0.3, 1.0, 2.5):
            h = 1e-5
            rho_plus = radial_solution(r0, t + h) ** 2
            rho_minus = radial_solution(r0, t - h) ** 2
            rho = radial_solution(r0, t) ** 2
            lhs = (rho_plus - rho_minus) / (2.0 * h)
            assert abs(lhs - 2.0 * rho * (1.0 - rho)) <= 1e-6


def test_radial_solution_fixed_points():
    for t in (0.0, 1.0, 10.0):
        assert radial_solution(1.0, t) == 1.0
        assert radial_solution(0.0, t) == 0.0


def test_radial_solution_monotone_attraction():
    assert radial_solution(0.1, 5.0) < radial_solution(0.1, 10.0) < 1.0
    assert 1.0 < radial_solution(2.0, 10.0) < radial_solution(2.0, 5.0)
    assert abs(radial_solution(0.1, 10.0) - 1.0) < 1e-5
    assert abs(radial_solution(2.0, 10.0) - 1.0) < 1e-5


def test_conservative_entries_are_exactly_conservative():
    rng = np.random.default_rng(113)
    for name in ("center_conservative", "defective_nilpotent", "zero_matrix"):
        entry = get(name)
        for _ in range(50):
            x = random_point(rng)
            assert abs(phi_rate(entry.system, x)) <= 1e-12
