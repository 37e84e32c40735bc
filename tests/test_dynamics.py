"""Integration, monotonicity, polar equivalence, grid audits."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aodecomp import (
    Matrix2,
    MissingPotential,
    NonFinite,
    Point2,
    SystemSpec,
    cartesian_polar_agreement,
    check_monotonicity,
    definition2_check,
    get,
    integrate,
    integrate_polar,
    radial_solution,
)
from helpers import reversed_system


@pytest.fixture(scope="module")
def hopf():
    return get("hopf_limit_cycle")


def _final_radius(traj) -> float:
    return float(np.hypot(traj.x[-1, 0], traj.x[-1, 1]))


def test_integrate_converges_to_cycle(hopf):
    traj = integrate(hopf.system, Point2(0.1, 0.0), dt=1e-3, t_end=10.0)
    assert abs(_final_radius(traj) - 1.0) < 1e-5
    assert abs(_final_radius(traj) - radial_solution(0.1, 10.0)) < 1e-5


def test_integrate_fixed_point_stays(hopf):
    traj = integrate(hopf.system, Point2(0.0, 0.0), dt=1e-3, t_end=1.0)
    assert np.all(traj.x == 0.0)
    assert np.all(traj.phi == 0.0)


def test_integrate_linear_node_matches_exponentials():
    node = SystemSpec.linear("node", Matrix2.diagonal(-1.0, -2.0))
    traj = integrate(node, Point2(1.0, 1.0), dt=1e-3, t_end=1.0)
    assert abs(traj.x[-1, 0] - math.exp(-1.0)) < 1e-6
    assert abs(traj.x[-1, 1] - math.exp(-2.0)) < 1e-6


def test_integrate_validates_steps(hopf):
    with pytest.raises(ValueError):
        integrate(hopf.system, Point2(0.1, 0.0), dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        integrate(hopf.system, Point2(0.1, 0.0), dt=0.1, t_end=0.01)


def test_integrate_blowup_carries_partial_trajectory():
    boom = SystemSpec.linear("boom", Matrix2.diagonal(5.0, -1.0))
    with pytest.raises(NonFinite) as excinfo:
        integrate(boom, Point2(1.0, 1.0), dt=1e-3, t_end=10.0)
    partial = excinfo.value.trajectory
    assert partial is not None and len(partial) > 1
    assert np.all(np.isfinite(partial.x))
    # blow-up threshold is 1e12; e^(5t) crosses it near t = 5.53
    assert 5.0 < partial.t[-1] < 6.0


def test_trajectory_time_grid_is_uniform(hopf):
    traj = integrate(hopf.system, Point2(0.5, 0.0), dt=0.01, t_end=2.0)
    assert len(traj) == 201
    steps = np.diff(traj.t)
    assert np.allclose(steps, 0.01, rtol=0.0, atol=1e-12)


def test_polar_invariant_circle():
    traj = integrate_polar(1.0, 0.3, dt=1e-3, t_end=5.0)
    assert np.all(traj.x[:, 0] == 1.0)


def test_polar_matches_analytic_radius():
    traj = integrate_polar(0.1, 0.0, dt=1e-3, t_end=10.0)
    assert abs(traj.x[-1, 0] - radial_solution(0.1, 10.0)) < 1e-6


def test_polar_angle_is_linear_in_time():
    theta0 = 0.7
    traj = integrate_polar(0.5, theta0, dt=1e-3, t_end=10.0)
    expected = theta0 + traj.t
    assert np.max(np.abs(traj.x[:, 1] - expected)) <= 1e-9


def test_polar_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        integrate_polar(0.0, 0.0, dt=1e-3, t_end=1.0)


def test_monotonicity_certificate(hopf):
    traj = integrate(hopf.system, Point2(0.1, 0.0), dt=1e-3, t_end=10.0)
    assert check_monotonicity(traj) <= 1e-9


def test_monotonicity_constant_trajectory(hopf):
    traj = integrate(hopf.system, Point2(0.0, 0.0), dt=1e-3, t_end=1.0)
    assert check_monotonicity(traj) == 0.0


def test_monotonicity_flips_for_reversed_field(hopf):
    traj = integrate(reversed_system(hopf.system), Point2(0.5, 0.0), dt=1e-3, t_end=2.0)
    assert check_monotonicity(traj) > 0.0


def test_monotonicity_needs_potential():
    bare = SystemSpec.linear("bare", Matrix2.diagonal(-1.0, -1.0))
    traj = integrate(bare, Point2(1.0, 0.0), dt=1e-3, t_end=1.0)
    with pytest.raises(MissingPotential):
        check_monotonicity(traj)


def test_cartesian_polar_agreement_inside():
    assert cartesian_polar_agreement(Point2(0.5, 0.0), dt=1e-3, t_end=10.0) <= 1e-6


def test_cartesian_polar_agreement_on_circle(hopf):
    assert cartesian_polar_agreement(Point2(1.0, 0.0), dt=1e-3, t_end=10.0) <= 1e-6
    traj = integrate(hopf.system, Point2(1.0, 0.0), dt=1e-3, t_end=10.0)
    radii = np.hypot(traj.x[:, 0], traj.x[:, 1])
    assert np.max(np.abs(radii - 1.0)) <= 1e-6


def test_outside_start_decays_monotonically(hopf):
    traj = integrate(hopf.system, Point2(2.0, 0.0), dt=1e-3, t_end=10.0)
    radii = np.hypot(traj.x[:, 0], traj.x[:, 1])
    assert np.all(np.diff(radii) <= 1e-12)
    assert abs(radii[-1] - 1.0) < 1e-5


def test_rk4_order_on_radial_problem():
    # global error should drop ~16x when the step is halved
    def err(dt: float) -> float:
        traj = integrate_polar(0.5, 0.0, dt=dt, t_end=2.0)
        return abs(traj.x[-1, 0] - radial_solution(0.5, 2.0))

    ratio = err(0.05) / err(0.025)
    assert 8.0 < ratio < 32.0


def test_midpoint_rate_matches_finite_differences(hopf):
    traj = integrate(hopf.system, Point2(0.5, 0.0), dt=1e-3, t_end=2.0)
    fd = (traj.phi[2:] - traj.phi[:-2]) / (2.0 * traj.dt)
    assert np.max(np.abs(fd - traj.phi_rate[1:-1])) <= 1e-4


def test_power_column_integrates_to_potential_drop(hopf):
    for x0 in (Point2(0.1, 0.0), Point2(2.0, 0.0)):
        traj = integrate(hopf.system, x0, dt=1e-3, t_end=10.0)
        integral = float(np.trapezoid(traj.h_p, traj.t))
        drop = float(traj.phi[0] - traj.phi[-1])
        assert abs(integral - drop) <= 1e-4


def test_definition2_hopf(hopf):
    rep = definition2_check(hopf.system, (-2.0, 2.0, -2.0, 2.0), 100)
    assert rep.violations == []
    assert abs(rep.empirical_infimum - (-0.25)) <= 2e-3
    assert rep.radial_growth_ok
    assert "not a global certificate" in rep.note


def test_definition2_saddle():
    saddle = get("saddle_tracezero")
    rep = definition2_check(saddle.system, (-1.0, 1.0, -1.0, 1.0), 50)
    assert rep.violations == []


def test_definition2_reversed_field_violates(hopf):
    rep = definition2_check(reversed_system(hopf.system), (-2.0, 2.0, -2.0, 2.0), 30)
    assert len(rep.violations) > 0
    assert "violations found" in rep.note


def test_definition2_validates_input(hopf):
    with pytest.raises(ValueError):
        definition2_check(hopf.system, (2.0, -2.0, -2.0, 2.0), 10)
    with pytest.raises(ValueError):
        definition2_check(hopf.system, (-2.0, 2.0, -2.0, 2.0), 1)
    bare = SystemSpec.linear("bare", Matrix2.diagonal(-1.0, -1.0))
    with pytest.raises(MissingPotential):
        definition2_check(bare, (-1.0, 1.0, -1.0, 1.0), 10)


def test_definition2_center_radial_probe_flags_unbounded_potential():
    # the center's potential is -(x1^2 + x2^2)/2: rate is zero everywhere but
    # the potential is unbounded below, which the radial probe reports
    center = get("center_conservative")
    rep = definition2_check(center.system, (-1.0, 1.0, -1.0, 1.0), 20)
    assert rep.violations == []
    assert not rep.radial_growth_ok
    assert "drops below" in rep.note


def test_integrate_polar_overflow_carries_partial_trajectory():
    # r**3 overflows in the fourth RK4 stage of the first step
    with pytest.raises(NonFinite) as excinfo:
        integrate_polar(1e6, 0.0, dt=1e-3, t_end=0.01)
    partial = excinfo.value.trajectory
    assert len(partial) == 1
    assert partial.x.tolist() == [[1e6, 0.0]]


def test_integrate_polar_radius_over_limit_is_a_blowup():
    with pytest.raises(NonFinite):
        integrate_polar(2e12, 0.0, dt=1e-9, t_end=1e-9)


@pytest.mark.parametrize("dt, t_end", [(float("nan"), 1.0), (1e-3, float("inf")), (1e-300, 1e300)])
def test_integrate_rejects_non_finite_step_counts(hopf, dt, t_end):
    with pytest.raises(ValueError):
        integrate(hopf.system, Point2(0.1, 0.0), dt=dt, t_end=t_end)
