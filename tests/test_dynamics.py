"""Integration, monotonicity, polar equivalence, grid audits."""

from __future__ import annotations

import math
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from aodecomp import (
    Matrix2,
    MissingPotential,
    NonFinite,
    NotFiniteQuantity,
    Point2,
    ScalarField,
    SystemSpec,
    VectorField,
    check_monotonicity,
    definition2_check,
    get,
    integrate,
    integrate_polar,
    list_systems,
    radial_solution,
)
from aodecomp import dynamics
from aodecomp.catalog import HOPF_POLAR
from helpers import cartesian_polar_distance, plain_rk4, reversed_system

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_step_count_is_capped():
    assert dynamics.MAX_STEPS >= 50 * 20_000  # the benchmark's longest run is 20k steps
    assert dynamics._steps(1.0, float(dynamics.MAX_STEPS)) == dynamics.MAX_STEPS
    for dt, t_end in ((1e-300, 1.0), (1.0, float(dynamics.MAX_STEPS) * (1 + 2**-52))):
        with pytest.raises(ValueError, match="MAX_STEPS"):
            dynamics._steps(dt, t_end)


def test_step_count_rounds_t_end_to_the_nearest_step(hopf):
    # 0.0015 / 0.001 is 1.5, which rounds to 2 steps: the last t passes t_end by dt / 2
    traj = integrate(hopf.system, Point2(0.5, 0.0), dt=1e-3, t_end=0.0015)
    assert traj.t.tolist() == [0.0, 0.001, 0.002]


def test_integrate_works_in_flat_float_buffers():
    # 20,000 steps: a list of 2 (n + 1) Python floats, then its copy into arrays, peaked at 2.9 MB;
    # the returned trajectory alone holds 0.96 MB
    spiral = get("stable_spiral").system
    integrate(spiral, Point2(1.0, 0.0), dt=1e-3, t_end=20.0)  # compiles and caches the loop
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        traj = integrate(spiral, Point2(1.0, 0.0), dt=1e-3, t_end=20.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(traj) == 20_001
    assert peak < 2_000_000


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


@pytest.mark.parametrize("r0, theta0", [(0.1, 0.0), (1.0, 0.3), (2.5, -2.0)])
def test_integrate_polar_is_integrate_of_the_polar_system(r0, theta0):
    pol = integrate_polar(r0, theta0, dt=1e-3, t_end=5.0)
    ref = integrate(HOPF_POLAR, Point2(r0, theta0), dt=1e-3, t_end=5.0)
    assert np.array_equal(pol.x.view(np.uint64), ref.x.view(np.uint64))


@pytest.mark.parametrize("r0, theta0", [(0.1, 0.7), (1.0, 0.0), (2.5, -2.0)])
def test_polar_divergence_is_the_cartesian_divergence(hopf, r0, theta0):
    # on the cycle r = 1 both charts give -2, where the dissipation power is 0
    pol = integrate_polar(r0, theta0, dt=1e-2, t_end=10.0)
    r, theta = pol.x[:, 0], pol.x[:, 1]
    cart = hopf.system.field.divergence_many(r * np.cos(theta), r * np.sin(theta))
    assert np.max(np.abs(pol.div_f - cart)) <= 1e-12


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


def test_monotonicity_of_a_single_step(hopf):
    # two samples make one difference: the reversed field's potential rises over its one step
    traj = integrate(reversed_system(hopf.system), Point2(0.5, 0.0), dt=1e-3, t_end=1e-3)
    assert len(traj) == 2
    assert check_monotonicity(traj) == float(traj.phi[1] - traj.phi[0]) > 0.0


def test_monotonicity_needs_potential():
    bare = SystemSpec.linear("bare", Matrix2.diagonal(-1.0, -1.0))
    traj = integrate(bare, Point2(1.0, 0.0), dt=1e-3, t_end=1.0)
    with pytest.raises(MissingPotential):
        check_monotonicity(traj)


def test_cartesian_polar_agreement_inside():
    assert cartesian_polar_distance(Point2(0.5, 0.0), dt=1e-3, t_end=10.0) <= 1e-6


def test_cartesian_polar_agreement_on_circle(hopf):
    assert cartesian_polar_distance(Point2(1.0, 0.0), dt=1e-3, t_end=10.0) <= 1e-6
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


def test_definition2_takes_a_two_point_axis_and_refuses_an_empty_region(hopf):
    assert "(2x2 grid)" in definition2_check(hopf.system, (-1.0, 1.0, -1.0, 1.0), 2).note
    with pytest.raises(ValueError, match="at least 2"):
        definition2_check(hopf.system, (-1.0, 1.0, -1.0, 1.0), 1)
    for region in ((1.0, 1.0, -1.0, 1.0), (-1.0, 1.0, 1.0, 1.0)):
        with pytest.raises(ValueError, match="empty region"):
            definition2_check(hopf.system, region, 3)


def test_definition2_violation_is_a_rate_above_the_tolerance(hopf):
    # the 3x3 grid's rates are -2 at the corners and exactly 0 at the centre and on the cycle; at zero
    # tolerance a zero rate is no violation
    rep = definition2_check(hopf.system, (-1.0, 1.0, -1.0, 1.0), 3, zero_tol=0.0)
    assert rep.violations == []


def test_definition2_reversed_field_violates(hopf):
    rep = definition2_check(reversed_system(hopf.system), (-2.0, 2.0, -2.0, 2.0), 30)
    assert len(rep.violations) > 0
    assert "violations found" in rep.note


@pytest.mark.parametrize("name", [*list_systems(), "reversed_hopf"])
def test_definition2_radial_probe_matches_a_point_loop(name):
    system = reversed_system(get("hopf_limit_cycle").system) if name == "reversed_hopf" else get(name).system
    rep = definition2_check(system, (-2.0, 2.0, -2.0, 2.0), 9)
    drops = [
        system.potential.evaluate(Point2(radius * math.cos(k * math.pi / 4.0), radius * math.sin(k * math.pi / 4.0)))
        <= rep.empirical_infimum
        for radius in (10.0, 100.0, 1000.0)
        for k in range(8)
    ]
    assert rep.radial_growth_ok is not any(drops)


def test_definition2_refuses_a_probe_potential_that_overflows():
    # finite on the grid, 1e305 * 1000^2 overflows at the outer probes
    phi = ScalarField(lambda x1, x2: 1e305 * (x1 * x1 + x2 * x2), gradient_fn=lambda x1, x2: (2e305 * x1, 2e305 * x2))
    system = SystemSpec("steep", VectorField(lambda x1, x2: (-x1, -x2)), potential=phi)
    with pytest.raises(NotFiniteQuantity, match="potential"):
        definition2_check(system, (-1.0, 1.0, -1.0, 1.0), 5)


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


def _run(system: SystemSpec, x0: Point2, dt: float, t_end: float) -> tuple[np.ndarray, str | None]:
    """``integrate``'s states and its blow-up message, or None."""
    try:
        return integrate(system, x0, dt=dt, t_end=t_end).x, None
    except NonFinite as exc:
        return exc.trajectory.x, str(exc)


def _assert_same_run(system: SystemSpec, x0: Point2, dt: float, t_end: float, fn=None) -> str | None:
    """``integrate`` against ``plain_rk4`` calling ``fn`` (the field's own by default), bit for bit."""
    states, failure = _run(system, x0, dt, t_end)
    ref_states, ref_failure = plain_rk4(system.field.fn if fn is None else fn, x0, dt, t_end, system.name)
    assert states.shape == ref_states.shape
    # an int64 view tells -0.0 from 0.0
    assert np.array_equal(states.view(np.int64), ref_states.view(np.int64))
    assert failure == ref_failure
    return failure


# Every catalog system, its polar form and a field with no stage; the saddle
# leaves the blow-up box (e^t * 0.5 passes 1e12 near t = 28.3).
STEPPED = {name: get(name).system for name in list_systems()}
STEPPED[HOPF_POLAR.name] = HOPF_POLAR
STEPPED["reversed_hopf"] = reversed_system(get("hopf_limit_cycle").system)


@pytest.mark.parametrize("name", STEPPED)
def test_compiled_loop_matches_plain_rk4(name):
    system = STEPPED[name]
    assert (system.field.stage is None) == (name == "reversed_hopf")
    failure = _assert_same_run(system, Point2(0.5, 0.25), dt=0.01, t_end=30.0)
    assert (failure is not None) == (name == "saddle_tracezero")


def _cubic(r, _theta):
    return r - r**3, 1.0


@pytest.mark.parametrize(
    "system, x0, dt, t_end",
    [
        (get("saddle_tracezero").system, Point2(1.0, 0.5), 0.1, 30.0),  # leaves the box mid-run
        (HOPF_POLAR, Point2(1e103, 0.0), 0.01, 0.05),  # r**3 raises OverflowError in the first stage
        (HOPF_POLAR, Point2(1e60, 0.0), 0.01, 0.05),  # ... and in the second
        (get("hopf_limit_cycle").system, Point2(1e5, 0.0), 0.01, 0.05),  # overflows to inf, no exception
        # no stage: a finite-time blow-up, and a float power that overflows
        (reversed_system(get("hopf_limit_cycle").system), Point2(1.5, 0.0), 0.01, 5.0),
        (SystemSpec("cubic", VectorField(_cubic, lambda r, _: 1.0)), Point2(1e103, 0.0), 0.01, 1.0),
    ],
    ids=["saddle", "polar_first_stage", "polar_second_stage", "hopf_inf", "no_stage", "no_stage_overflow"],
)
def test_compiled_loop_blows_up_where_plain_rk4_does(system, x0, dt, t_end):
    assert _assert_same_run(system, x0, dt, t_end).startswith("state blew up at t=")


SIGNED_ZERO_MATRICES = [
    Matrix2(-0.0, 0.0, -0.0, -0.0),
    Matrix2(-0.0, 1.0, -1.0, -0.0),
    Matrix2(0.0, -0.0, -0.0, -1.0),
]


def _ids(p) -> str:
    return ",".join(map(repr, (p.a11, p.a12, p.a21, p.a22) if isinstance(p, Matrix2) else (p.x1, p.x2)))


@pytest.mark.parametrize("a", SIGNED_ZERO_MATRICES, ids=_ids)
@pytest.mark.parametrize("x0", [Point2(-0.0, -0.0), Point2(0.0, -0.0), Point2(-0.0, 1.0), Point2(1.0, 0.0)], ids=_ids)
def test_linear_stage_keeps_signed_zero_coefficients(a, x0):
    # the reference calls Matrix2.apply_coords, not the field's stage, so a
    # stage that dropped the sign of a -0.0 coefficient differs here
    _assert_same_run(SystemSpec.linear("signed_zeros", a), x0, dt=0.01, t_end=0.5, fn=a.apply_coords)


# The polar stage is left out: numpy's x1**3 differs from Python's float
# power in the last bit at some points.
@pytest.mark.parametrize(
    "system",
    [*(get(name).system for name in list_systems()), *map(partial(SystemSpec.linear, "zeros"), SIGNED_ZERO_MATRICES)],
    ids=lambda s: s.name,
)
def test_stage_fn_gives_the_same_bits_on_floats_and_arrays(system):
    rng = np.random.default_rng(1311)
    x1 = np.concatenate([rng.uniform(-3.0, 3.0, 200), [0.0, -0.0, 0.0, -0.0, 1e50]])
    x2 = np.concatenate([rng.uniform(-3.0, 3.0, 200), [0.0, 0.0, -0.0, -0.0, -1e50]])
    with np.errstate(all="ignore"):
        f1, f2 = np.broadcast_arrays(*system.field.fn(x1, x2))
    pairs = [system.field.fn(a, b) for a, b in zip(x1.tolist(), x2.tolist())]
    assert np.array_equal(f1.view(np.int64), np.array([p[0] for p in pairs]).view(np.int64))
    assert np.array_equal(f2.view(np.int64), np.array([p[1] for p in pairs]).view(np.int64))


def test_stage_may_not_bind_loop_names_or_read_globals():
    for stage in ("a = x1\nf1, f2 = a, x2", "f1, f2 = dt * x1, x2", "f1, f2 = math.sin(x1), x2"):
        with pytest.raises(ValueError, match="stage"):
            VectorField.from_stage(stage)
    field = VectorField.from_stage("_s = abs(x1)\nf1, f2 = _s, -x2")
    assert field.fn(-2.0, 3.0) == (2.0, -3.0)


def test_only_from_stage_sets_a_stage():
    # a stage given beside an fn it was not compiled from would step one field and evaluate another
    with pytest.raises(TypeError):
        VectorField(lambda x1, x2: (0.0, 0.0), None, "f1, f2 = -x1, -x2")
    with pytest.raises(TypeError):
        VectorField(lambda x1, x2: (0.0, 0.0), stage="a = 5.0\nf1, f2 = 0.0, 0.0")
    assert VectorField(lambda x1, x2: (0.0, 0.0)).stage is None


def test_integrate_reuses_one_loop_per_stage():
    a = Matrix2(-0.25, 0.125, -0.125, -0.375)
    first, second = SystemSpec.linear("first", a), SystemSpec.linear("second", a)
    assert first.field.stage == second.field.stage
    before = dynamics._loop.cache_info()
    for system in (first, second, first):
        integrate(system, Point2(1.0, 1.0), dt=0.1, t_end=1.0)
    after = dynamics._loop.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)


def test_importing_the_cli_compiles_no_step_loop():
    code = "import aodecomp.cli; from aodecomp import dynamics; print(dynamics._loop.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={"PYTHONPATH": str(SRC)},
        timeout=60, check=True,
    )
    assert proc.stdout == "0\n"
