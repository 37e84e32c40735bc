"""Batched evaluation against the loop over the scalar closures, bit for bit.

The loop versions below are the reference: they spell out, point by point
and through ``Point2``, what the batched functions must reproduce exactly,
including the sign of zero.
"""

from __future__ import annotations

import dataclasses
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from aodecomp import Matrix2, NonFinite, Point2, ScalarField, SystemSpec, get, integrate, list_systems
from aodecomp.dissipation import VERDICTS, phi_rate_many, power_many, report_many
from aodecomp.field import equilibrium_mask, friction_at, friction_scalar, transverse_at, transverse_scalar
from aodecomp.tolerances import EQUILIBRIUM_TOL, master_tol
from aodecomp.catalog import HOPF_POLAR
from aodecomp.cli import main
from helpers import gradient_flow_system, reversed_system

SRC = Path(__file__).resolve().parents[1] / "src"


def _systems() -> dict[str, SystemSpec]:
    """Every catalog system, plus test fields whose divergence or gradient is a finite difference."""
    systems = {name: get(name).system for name in list_systems()}
    hopf = systems["hopf_limit_cycle"]
    systems["reversed_hopf"] = reversed_system(hopf)
    systems["gradient_flow"] = gradient_flow_system()
    systems["hopf_fd_gradient"] = SystemSpec("hopf_fd_gradient", hopf.field, ScalarField(hopf.potential.fn))
    return systems


SYSTEMS = _systems()


def _points() -> tuple[np.ndarray, np.ndarray]:
    """Seeded random points, the origin (both zero signs), the unit circle, near-equilibria."""
    rng = np.random.default_rng(20260417)
    x1 = list(rng.uniform(-2.0, 2.0, 300))
    x2 = list(rng.uniform(-2.0, 2.0, 300))
    for a, b in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
        x1.append(a)
        x2.append(b)
    for theta in np.linspace(-math.pi, math.pi, 40):
        x1.append(math.cos(theta))
        x2.append(math.sin(theta))
    # Near the origin the oscillator's |f| is about |x|, so radii around
    # EQUILIBRIUM_TOL straddle the equilibrium threshold.
    for r in rng.uniform(0.5, 1.5, 60) * EQUILIBRIUM_TOL:
        theta = rng.uniform(-math.pi, math.pi)
        x1.append(r * math.cos(theta))
        x2.append(r * math.sin(theta))
    # the nilpotent shear (0, x1) is at rest on the x2 axis
    for y in (-1.0, 0.5, 1e-12):
        x1.append(1e-11)
        x2.append(y)
    return np.array(x1), np.array(x2)


X1, X2 = _points()


def _pts():
    return [Point2(a, b) for a, b in zip(X1.tolist(), X2.tolist())]


def assert_same_bits(batch, reference) -> None:
    batch = np.asarray(batch, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    assert batch.shape == reference.shape
    assert np.array_equal(batch.view(np.uint64), reference.view(np.uint64))


def reference_power(sys: SystemSpec, p: Point2) -> float:
    f = sys.field.evaluate(p)
    s = sys.friction
    if s is not None:
        return s.a11 * f.x1 * f.x1 + (s.a12 + s.a21) * f.x1 * f.x2 + s.a22 * f.x2 * f.x2
    if f.norm() <= EQUILIBRIUM_TOL * (1.0 + p.norm()):
        return 0.0
    return friction_scalar(f, sys.potential.gradient(p)) * f.dot(f)


def reference_report(sys: SystemSpec, p: Point2, tol: float) -> tuple:
    div = sys.field.divergence(p)
    if abs(div) <= tol:
        verdict_div = "conservative"
    elif div < 0.0:
        verdict_div = "dissipative"
    else:
        verdict_div = "expanding"
    h_p = reference_power(sys, p)
    rate = sys.potential.gradient(p).dot(sys.field.evaluate(p))
    verdict_power = "conservative" if abs(h_p) <= tol else "dissipative"
    return div, verdict_div, h_p, rate, abs(abs(rate) - h_p), verdict_power, verdict_power == verdict_div


@pytest.mark.parametrize("name", SYSTEMS)
def test_field_batches_match_point_loop(name):
    sys = SYSTEMS[name]
    pts = _pts()
    f1, f2 = sys.field.evaluate_many(X1, X2)
    values = [sys.field.evaluate(p) for p in pts]
    assert_same_bits(f1, [v.x1 for v in values])
    assert_same_bits(f2, [v.x2 for v in values])
    assert_same_bits(sys.field.divergence_many(X1, X2), [sys.field.divergence(p) for p in pts])
    assert_same_bits(sys.potential.evaluate_many(X1, X2), [sys.potential.evaluate(p) for p in pts])
    g1, g2 = sys.potential.gradient_many(X1, X2)
    grads = [sys.potential.gradient(p) for p in pts]
    assert_same_bits(g1, [g.x1 for g in grads])
    assert_same_bits(g2, [g.x2 for g in grads])
    # the frame scalars off the equilibria, where the scalar forms are defined
    moving = np.array([f.norm() > EQUILIBRIUM_TOL for f in values])
    frame = (f1[moving], f2[moving], g1[moving], g2[moving])
    pairs = [(f, g) for f, g, m in zip(values, grads, moving.tolist()) if m]
    assert_same_bits(friction_at(*frame), [friction_scalar(f, g) for f, g in pairs])
    assert_same_bits(transverse_at(*frame), [transverse_scalar(f, g) for f, g in pairs])


@pytest.mark.parametrize("name", SYSTEMS)
def test_report_columns_match_point_loop(name):
    sys = SYSTEMS[name]
    pts = _pts()
    tol = master_tol()
    reference = [reference_report(sys, p, tol) for p in pts]
    rep = report_many(sys, X1, X2)
    assert_same_bits(rep.div_f, [r[0] for r in reference])
    assert [VERDICTS[c] for c in rep.verdict_divergence.tolist()] == [r[1] for r in reference]
    assert_same_bits(rep.h_p, [r[2] for r in reference])
    assert_same_bits(rep.phi_rate, [r[3] for r in reference])
    assert_same_bits(rep.identity_gap, [r[4] for r in reference])
    assert [VERDICTS[c] for c in rep.verdict_power.tolist()] == [r[5] for r in reference]
    assert rep.agree.tolist() == [r[6] for r in reference]
    assert_same_bits(phi_rate_many(sys, X1, X2), [r[3] for r in reference])
    pointwise_sys = dataclasses.replace(sys, friction=None)
    pointwise, _ = power_many(pointwise_sys, X1, X2)
    assert_same_bits(pointwise, [reference_power(pointwise_sys, p) for p in pts])


def test_linear_divergence_keeps_the_sign_of_a_zero_trace():
    a = Matrix2(-0.0, 1.0, -1.0, -0.0)
    sys = SystemSpec.linear("negative_zero_trace", a)
    assert math.copysign(1.0, a.trace) == -1.0
    assert_same_bits(sys.field.divergence_many(X1, X2), np.full(len(X1), -0.0))


def test_equilibrium_mask_matches_math_hypot_at_the_threshold():
    # |f| placed within a few ulps of EQUILIBRIUM_TOL * (1 + |x|), where
    # np.hypot and math.hypot can decide differently
    rng = np.random.default_rng(7)
    x1, x2 = rng.uniform(-3.0, 3.0, (2, 20000))
    angle = rng.uniform(-math.pi, math.pi, 20000)
    bound = EQUILIBRIUM_TOL * (1.0 + np.hypot(x1, x2))
    scale = bound * (1.0 + rng.integers(-4, 5, 20000) * np.finfo(float).eps)
    f1, f2 = scale * np.cos(angle), scale * np.sin(angle)
    expected = [
        math.hypot(a, b) <= EQUILIBRIUM_TOL * (1.0 + math.hypot(c, d))
        for a, b, c, d in zip(f1.tolist(), f2.tolist(), x1.tolist(), x2.tolist())
    ]
    assert equilibrium_mask(x1, x2, f1, f2).tolist() == expected


@pytest.mark.parametrize("name", SYSTEMS)
def test_integrate_columns_match_scalar_recomputation(name):
    sys = SYSTEMS[name]
    traj = integrate(sys, Point2(0.6, -0.3), dt=0.01, t_end=2.0)
    pts = [Point2(a, b) for a, b in traj.x.tolist()]
    assert_same_bits(traj.t, [i * 0.01 for i in range(len(pts))])
    assert_same_bits(traj.phi, [sys.potential.evaluate(p) for p in pts])
    assert_same_bits(traj.phi_rate, [sys.potential.gradient(p).dot(sys.field.evaluate(p)) for p in pts])
    assert_same_bits(traj.h_p, [reference_power(sys, p) for p in pts])
    assert_same_bits(traj.div_f, [sys.field.divergence(p) for p in pts])


def test_integrate_states_match_point_stepper():
    dt = 0.01
    # the Cartesian oscillator and its polar chart go through the same loop
    for sys in (get("hopf_limit_cycle").system, HOPF_POLAR):
        traj = integrate(sys, Point2(0.6, -0.3), dt=dt, t_end=1.0)
        p = Point2(0.6, -0.3)
        f = sys.field.evaluate
        for row in traj.x[1:].tolist():
            k1 = f(p)
            k2 = f(p + k1.scaled(0.5 * dt))
            k3 = f(p + k2.scaled(0.5 * dt))
            k4 = f(p + k3.scaled(dt))
            p = Point2(
                p.x1 + dt * (k1.x1 + 2.0 * (k2.x1 + k3.x1) + k4.x1) / 6.0,
                p.x2 + dt * (k1.x2 + 2.0 * (k2.x2 + k3.x2) + k4.x2) / 6.0,
            )
            assert row == [p.x1, p.x2]


def test_stage_overflow_is_a_blowup_not_an_input_error():
    # at x0 = 1e5 the fourth RK4 stage of the first step overflows to inf
    with pytest.raises(NonFinite) as excinfo:
        integrate(get("hopf_limit_cycle").system, Point2(1e5, 0.0), dt=0.1, t_end=1.0)
    assert len(excinfo.value.trajectory) == 1


HUGE = "-1e200,1e200,-1e200,1e200,7,5"
OVERFLOW_ARGVS = (
    ["grid", "--system", "hopf_limit_cycle", "--grid", HUGE, "--quantity", "potential"],
    ["grid", "--system", "hopf_limit_cycle", "--grid", HUGE, "--quantity", "vector_field"],
    ["grid", "--system", "stable_spiral", "--grid", HUGE, "--quantity", "phi_rate"],
    ["grid", "--system", "hopf_limit_cycle", "--grid", "-1e308,1e308,-1,1,7,5", "--quantity", "divergence"],
    ["report", "--system", "stable_node", "--grid", HUGE, "--format", "csv"],
    ["report", "--system", "hopf_limit_cycle", "--grid", HUGE, "--format", "csv"],
)


@pytest.mark.parametrize("argv", OVERFLOW_ARGVS, ids=lambda argv: " ".join(argv))
def test_overflow_inputs_raise_no_warning(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1)
    assert err == "" if code == 0 else err.startswith("aodecomp:")


def test_overflow_grid_prints_only_the_message_in_a_fresh_interpreter():
    # the potential overflows on this grid; numpy must print no RuntimeWarning
    argv = ["grid", "--system", "hopf_limit_cycle", "--grid", HUGE, "--quantity", "potential"]
    proc = subprocess.run(
        [sys.executable, "-m", "aodecomp.cli", *argv],
        capture_output=True, text=True, env={"PYTHONPATH": str(SRC)}, timeout=60, check=False,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"aodecomp: the potential of 'hopf_limit_cycle' overflows float64 at --grid {HUGE}\n"
