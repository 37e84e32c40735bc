"""Batched evaluation against the loop over the scalar closures, bit for bit.

The loop versions below are the reference: they spell out, point by point
and through ``Point2``, what the batched functions must reproduce exactly,
including the sign of zero.
"""

from __future__ import annotations

import math
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aodecomp import (
    EquilibriumPoint,
    Matrix2,
    NonFinite,
    NotFiniteQuantity,
    Point2,
    ScalarField,
    SystemSpec,
    VectorField,
    decompose_many,
    get,
    integrate,
    list_systems,
    point_decomposition,
)
from aodecomp.dissipation import VERDICTS, phi_rate_many, power_many, report_many
from aodecomp.field import friction_at, transverse_at
from aodecomp.tolerances import EQUILIBRIUM_TOL, master_tol
from aodecomp.catalog import HOPF_POLAR
from aodecomp.cli import main
from helpers import dot, gradient_flow_system, reversed_system

SRC = Path(__file__).resolve().parents[1] / "src"


def _systems() -> dict[str, SystemSpec]:
    """Every catalog system, plus test fields whose divergence or gradient is a finite difference."""
    systems = {name: get(name).system for name in list_systems()}
    hopf = systems["hopf_limit_cycle"]
    systems["reversed_hopf"] = reversed_system(hopf)
    systems["gradient_flow"] = gradient_flow_system()
    systems["hopf_fd_gradient"] = SystemSpec("hopf_fd_gradient", hopf.field, ScalarField(hopf.potential.fn))
    systems["hopf_fd_divergence"] = SystemSpec("hopf_fd_divergence", VectorField(hopf.field.fn), hopf.potential)
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
    g = sys.potential.gradient(p)
    return friction_at(f.x1, f.x2, g.x1, g.x2) * dot(f, f)


def reference_report(sys: SystemSpec, p: Point2, tol: float) -> tuple:
    div = sys.field.divergence(p)
    if abs(div) <= tol:
        verdict_div = "conservative"
    elif div < 0.0:
        verdict_div = "dissipative"
    else:
        verdict_div = "expanding"
    h_p = reference_power(sys, p)
    rate = dot(sys.potential.gradient(p), sys.field.evaluate(p))
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
    # the frame closures off the equilibria, where the frame is defined
    moving = np.array([f.norm() > EQUILIBRIUM_TOL for f in values])
    frame = (f1[moving], f2[moving], g1[moving], g2[moving])
    pairs = [(f.x1, f.x2, g.x1, g.x2) for f, g, m in zip(values, grads, moving.tolist()) if m]
    assert_same_bits(friction_at(*frame), [friction_at(*pair) for pair in pairs])
    assert_same_bits(transverse_at(*frame), [transverse_at(*pair) for pair in pairs])


# Points where f . f or grad(phi) . f overflows for a linear system, and
# where the oscillator's field or gradient overflows (1e200 and up) or stays
# finite while its frame products overflow (1e102).
_HUGE = np.random.default_rng(20261018).uniform(-1.0, 1.0, (3, 2, 20)) * np.array([1.2e102, 1e200, 1e250])[:, None, None]
HUGE_X1 = np.concatenate([[1e200, 1e200, 1.2e102, 1e250], _HUGE[:, 0].ravel()])
HUGE_X2 = np.concatenate([[0.0, -3e199, 1.2e102, 1e250], _HUGE[:, 1].ravel()])


@pytest.mark.parametrize("name", SYSTEMS)
def test_decompose_many_matches_point_decomposition_loop(name):
    sys = SYSTEMS[name]
    x1, x2 = np.concatenate([X1, HUGE_X1]), np.concatenate([X2, HUGE_X2])
    rows = []
    for i, p in enumerate(Point2(a, b) for a, b in zip(x1.tolist(), x2.tolist())):
        try:
            rows.append((i, point_decomposition(sys, p)))
        except EquilibriumPoint:
            rows.append((i, None))
        except NotFiniteQuantity:  # the field, or the gradient off an equilibrium, overflows here
            with pytest.raises(NotFiniteQuantity):
                decompose_many(sys, x1[i:i + 1], x2[i:i + 1])
    kept = [i for i, _ in rows]
    assert len(kept) >= len(X1)
    cols = decompose_many(sys, x1[kept], x2[kept])
    equilibrium = [pd is None for _, pd in rows]
    assert cols.equilibrium.tolist() == equilibrium
    assert cols.singular_on_isopotential.tolist() == [pd is not None and pd.singular_on_isopotential for _, pd in rows]
    moving = [pd for _, pd in rows if pd is not None]
    free = ~cols.equilibrium
    assert_same_bits(cols.f1[free], [pd.drift.x1 for pd in moving])
    assert_same_bits(cols.f2[free], [pd.drift.x2 for pd in moving])
    assert_same_bits(cols.g1[free], [pd.potential_gradient.x1 for pd in moving])
    assert_same_bits(cols.g2[free], [pd.potential_gradient.x2 for pd in moving])
    assert_same_bits(cols.friction[free], [pd.friction for pd in moving])
    assert_same_bits(cols.transverse[free], [pd.transverse for pd in moving])
    nan = float("nan")
    assert_same_bits(cols.diffusion[free], [nan if pd.diffusion is None else pd.diffusion for pd in moving])
    assert_same_bits(cols.gyration[free], [nan if pd.gyration is None else pd.gyration for pd in moving])
    # an equilibrium row holds NaN in g and the frame
    for column in (cols.g1, cols.g2, cols.friction, cols.transverse, cols.diffusion, cols.gyration):
        assert np.isnan(column[cols.equilibrium]).all()


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
    pointwise_sys = SystemSpec(sys.name, sys.field, sys.potential, friction=None)
    pointwise, _ = power_many(pointwise_sys, X1, X2)
    assert_same_bits(pointwise, [reference_power(pointwise_sys, p) for p in pts])


def test_linear_divergence_keeps_the_sign_of_a_zero_trace():
    a = Matrix2(-0.0, 1.0, -1.0, -0.0)
    sys = SystemSpec.linear("negative_zero_trace", a)
    assert math.copysign(1.0, a.trace) == -1.0
    assert_same_bits(sys.field.divergence_many(X1, X2), np.full(len(X1), -0.0))


def test_equilibria_at_the_threshold_are_decided_alike_at_one_point_and_at_n():
    # |f| placed within a few ulps of EQUILIBRIUM_TOL * (1 + |x|), through a
    # field tabulated at these points
    rng = np.random.default_rng(7)
    x1, x2 = rng.uniform(-3.0, 3.0, (2, 20000))
    angle = rng.uniform(-math.pi, math.pi, 20000)
    bound = EQUILIBRIUM_TOL * (1.0 + np.hypot(x1, x2))
    scale = bound * (1.0 + rng.integers(-4, 5, 20000) * np.finfo(float).eps)
    f1, f2 = scale * np.cos(angle), scale * np.sin(angle)
    table = dict(zip(zip(x1.tolist(), x2.tolist()), zip(f1.tolist(), f2.tolist())))

    def tabulated(a, b):
        return tuple(np.array([table[p] for p in zip(a.tolist(), b.tolist())]).T)

    sys = SystemSpec("tabulated", VectorField(tabulated), ScalarField(lambda a, b: a, lambda a, b: (1.0, 0.0)))
    batch = decompose_many(sys, x1, x2).equilibrium.tolist()
    single = []
    for p in zip(x1.tolist(), x2.tolist()):
        try:
            point_decomposition(sys, Point2(*p))
            single.append(False)
        except EquilibriumPoint:
            single.append(True)
    assert batch == single
    assert 0 < sum(single) < len(single)


@pytest.mark.parametrize("name", SYSTEMS)
def test_integrate_columns_match_scalar_recomputation(name):
    sys = SYSTEMS[name]
    traj = integrate(sys, Point2(0.6, -0.3), dt=0.01, t_end=2.0)
    pts = [Point2(a, b) for a, b in traj.x.tolist()]
    assert_same_bits(traj.t, [i * 0.01 for i in range(len(pts))])
    assert_same_bits(traj.phi, [sys.potential.evaluate(p) for p in pts])
    assert_same_bits(traj.phi_rate, [dot(sys.potential.gradient(p), sys.field.evaluate(p)) for p in pts])
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


def _square(x1, x2):
    return x1 * x1  # not finite where |x1| > 1.4e154


def _identity(x1, x2):
    return x1, x2


def _square_first(x1, x2):
    return x1 * x1, x2


# One batch function per entry, on a field built so that it raises at the rows
# where x1 = 1e200 and nowhere else.
ROW_CASES = {
    "ScalarField.evaluate_many": (ScalarField(_square).evaluate_many, "potential"),
    "ScalarField.gradient_many": (ScalarField(_square, gradient_fn=_square_first).gradient_many, "potential gradient"),
    "VectorField.evaluate_many": (VectorField(_square_first).evaluate_many, "vector field"),
    "VectorField.divergence_many": (VectorField(_identity, divergence_fn=_square).divergence_many, "divergence"),
    "phi_rate_many": (
        partial(phi_rate_many, SystemSpec("rate", VectorField(_identity), ScalarField(_square, _identity))),
        "rate of change of the potential",
    ),
    "power_many": (
        partial(power_many, SystemSpec.linear("power", Matrix2.identity(), friction=Matrix2.identity())),
        "dissipation power",
    ),
    "report_many": (
        partial(report_many, SystemSpec.linear("report", Matrix2.identity(), ScalarField(_square, _identity))),
        "dissipation power",
    ),
    # the origin is an equilibrium of x' = x, where decompose_many evaluates no gradient
    "decompose_many": (
        partial(decompose_many, SystemSpec("frame", VectorField(_identity), ScalarField(_square, _square_first))),
        "potential gradient",
    ),
}
ROW_COORDINATES = {"finite": (0.5, -0.25), "equilibrium": (0.0, 0.0), "overflow": (1e200, 0.0)}


@pytest.mark.parametrize("name", ROW_CASES)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kinds=st.lists(st.sampled_from(tuple(ROW_COORDINATES)), max_size=12).filter(lambda k: "overflow" in k))
@example(kinds=["equilibrium", "equilibrium", "finite", "overflow", "finite", "overflow"])
def test_not_finite_quantity_row_is_the_first_non_finite_row(name, kinds):
    compute, quantity = ROW_CASES[name]
    x1, x2 = (np.array(column) for column in zip(*(ROW_COORDINATES[kind] for kind in kinds)))
    with pytest.raises(NotFiniteQuantity) as excinfo:
        compute(x1, x2)
    assert excinfo.value.quantity == quantity
    assert excinfo.value.row == kinds.index("overflow")
