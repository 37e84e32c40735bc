"""Dissipation power vs divergence: fixtures, identity, verdicts."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aodecomp import (
    Matrix2,
    MissingPotential,
    NotFiniteQuantity,
    NotPSD,
    Point2,
    ScalarField,
    SystemSpec,
    VectorField,
    assemble_decomposition,
    divergence,
    get,
    phi_rate,
    report,
    solve_gyration,
)
from aodecomp.dissipation import CONSERVATIVE, DISSIPATIVE, EXPANDING, phi_rate_many, power_many, report_many
from helpers import dot, friction_power, random_diffusion, random_matrix_nonzero_trace, random_point


@pytest.fixture(scope="module")
def hopf():
    return get("hopf_limit_cycle")


@pytest.fixture(scope="module")
def saddle():
    return get("saddle_tracezero")


def test_power_fixture_off_cycle(hopf):
    # value r^2 (r^2 - 1)^2 at r^2 = 1/4 is 0.140625
    x = Point2(0.5, 0.0)
    f = hopf.system.field.evaluate(x)
    g = hopf.system.potential.gradient(x)
    s = -(dot(g, f)) / dot(f, f)
    power = friction_power(Matrix2.diagonal(s, s), f.x1, f.x2)[0]
    assert abs(power - 0.140625) <= 1e-15


def test_power_zero_on_cycle(hopf):
    x = Point2(1.0, 0.0)
    rep = report(hopf.system, x)
    assert rep.h_p == 0.0


def test_power_saddle_fixture(saddle):
    dec = saddle.decomposition
    x = Point2(1.0, 0.0)
    f = saddle.system.field.evaluate(x)
    power = friction_power(dec.friction, f.x1, f.x2)[0]
    assert abs(power - 0.5) <= 1e-15
    # closed form for the trace-zero case: l1^2 (d22 x1^2 + d11 x2^2) / (d11 d22 + q^2)
    closed = 1.0 * (1.0 * 1.0 + 1.0 * 0.0) / (1.0 + 1.0)
    assert abs(power - closed) <= 1e-15


def test_power_rejects_non_psd():
    with pytest.raises(NotPSD):
        friction_power(Matrix2.diagonal(-1.0, 1.0), 1.0, 0.0)
    with pytest.raises(NotPSD):
        friction_power(Matrix2(1.0, 0.5, -0.5, 1.0), 1.0, 0.0)


def test_divergence_on_cycle(hopf):
    for k in range(100):
        theta = 2.0 * math.pi * k / 100.0
        x = Point2(math.cos(theta), math.sin(theta))
        assert abs(divergence(hopf.system, x) - (-2.0)) <= 1e-12


def test_divergence_at_origin(hopf):
    assert divergence(hopf.system, Point2(0.0, 0.0)) == 2.0


def test_divergence_of_linear_is_exact_trace(saddle):
    rng = np.random.default_rng(73)
    for _ in range(50):
        assert divergence(saddle.system, random_point(rng)) == 0.0
    a = Matrix2(0.3, 1.0, -2.0, -1.7)
    sys = SystemSpec.linear("probe", a)
    assert divergence(sys, Point2(5.0, -3.0)) == a.trace


def test_divergence_finite_difference_fallback(hopf):
    bare = VectorField(hopf.system.field.fn)
    sys = SystemSpec("hopf_no_analytic", bare)
    rng = np.random.default_rng(79)
    for _ in range(20):
        x = random_point(rng)
        assert abs(divergence(sys, x) - hopf.system.field.divergence(x)) <= 1e-6


def test_phi_rate_fixtures(hopf, saddle):
    assert abs(phi_rate(hopf.system, Point2(0.5, 0.0)) - (-0.140625)) <= 1e-15
    assert phi_rate(hopf.system, Point2(1.0, 0.0)) == 0.0
    assert phi_rate(saddle.system, Point2(0.0, 0.0)) == 0.0


def test_phi_rate_requires_potential():
    bare = SystemSpec("bare", VectorField(lambda x1, x2: (1.0, 0.0)))
    with pytest.raises(MissingPotential):
        phi_rate(bare, Point2(0.0, 0.0))


def test_report_hopf_on_cycle(hopf):
    rep = report(hopf.system, Point2(1.0, 0.0))
    assert rep.h_p == 0.0
    assert rep.div_f == -2.0
    assert rep.verdict_power == CONSERVATIVE
    assert rep.verdict_divergence == DISSIPATIVE
    assert rep.agree is False


def test_report_saddle(saddle):
    rep = report(saddle.system, Point2(1.0, 0.0))
    assert abs(rep.h_p - 0.5) <= 1e-15
    assert rep.div_f == 0.0
    assert rep.agree is False


def test_report_center_grid_agrees():
    center = get("center_conservative")
    rng = np.random.default_rng(83)
    for _ in range(100):
        x = random_point(rng)
        rep = report(center.system, x)
        assert rep.h_p <= 1e-12
        assert abs(rep.div_f) <= 1e-12
        assert rep.verdict_power == CONSERVATIVE
        assert rep.verdict_divergence == CONSERVATIVE
        assert rep.agree is True


def test_report_divergence_only_without_potential():
    bare = SystemSpec(
        "bare", VectorField(lambda x1, x2: (-x1, -x2), divergence_fn=lambda x1, x2: -2.0)
    )
    rep = report(bare, Point2(1.0, 1.0))
    assert rep.h_p is None and rep.phi_rate is None and rep.agree is None
    assert rep.verdict_divergence == DISSIPATIVE


def test_identity_at_random_points_builtin(hopf):
    rng = np.random.default_rng(89)
    for _ in range(1000):
        x = random_point(rng)
        rep = report(hopf.system, x)
        assert rep.identity_gap <= 1e-9 * (1.0 + abs(rep.phi_rate))
        assert rep.h_p >= -1e-12


def test_identity_for_random_linear_decompositions():
    rng = np.random.default_rng(97)
    for _ in range(200):
        a = random_matrix_nonzero_trace(rng)
        d = random_diffusion(rng)
        dec = assemble_decomposition(a, d, solve_gyration(a, d).q)
        sys = SystemSpec.linear("random", a, potential=dec.potential(), friction=dec.friction)
        for _ in range(5):
            x = random_point(rng)
            rep = report(sys, x)
            assert rep.identity_gap <= 1e-9 * (1.0 + abs(rep.phi_rate))


def test_disagreement_circles_and_agreement_ring(hopf):
    rng = np.random.default_rng(101)
    half = math.sqrt(0.5)
    for _ in range(50):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        on_cycle = report(hopf.system, Point2(math.cos(theta), math.sin(theta)))
        assert on_cycle.agree is False  # div = -2 while power vanishes
        on_half = report(hopf.system, Point2(half * math.cos(theta), half * math.sin(theta)))
        assert on_half.agree is False  # div vanishes while power is 1/8
        assert abs(on_half.h_p - 0.125) <= 1e-12
        # in the contracting ring both criteria say dissipative
        r = float(rng.uniform(0.75, 0.95))
        ring = report(hopf.system, Point2(r * math.cos(theta), r * math.sin(theta)))
        assert ring.agree is True
        assert ring.verdict_divergence == DISSIPATIVE


def test_expanding_region_never_agrees(hopf):
    # inside r^2 < 1/2 the divergence is positive: expanding, no agreement
    rep = report(hopf.system, Point2(0.5, 0.0))
    assert rep.verdict_divergence == EXPANDING
    assert rep.agree is False


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9])
def test_master_tol_rejects_invalid_overrides(hopf, value):
    with pytest.raises(ValueError):
        report(hopf.system, Point2(1.0, 0.0), zero_tol=value)


def _at_second_row(value):
    """A closure value: ``value`` where x1 == 2, 1.0 elsewhere."""
    return lambda x1, x2: np.where(x1 == 2.0, value, 1.0)


def _poisoned_system(stage, value):
    """A gradient-like system whose ``stage`` closure is ``value`` at x1 = 2, finite elsewhere."""
    bad = _at_second_row(value)
    f1 = bad if stage == "vector field" else (lambda x1, x2: -x1)
    g1 = bad if stage == "potential gradient" else (lambda x1, x2: x1)
    div = bad if stage == "divergence" else (lambda x1, x2: -2.0)
    field = VectorField(lambda x1, x2: (f1(x1, x2), -x2), divergence_fn=div)
    phi = ScalarField(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), gradient_fn=lambda x1, x2: (g1(x1, x2), x2))
    return SystemSpec("poisoned", field, potential=phi)


X1, X2 = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.5])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("stage", ["vector field", "potential gradient", "divergence"])
def test_report_many_names_a_non_finite_closure_value(stage, value):
    system = _poisoned_system(stage, value)
    with pytest.raises(NotFiniteQuantity) as excinfo:
        report_many(system, X1, X2)
    assert excinfo.value.quantity == stage
    assert repr(excinfo.value.value) == repr(value)
    assert isinstance(excinfo.value, ValueError)
    if stage != "divergence":
        with pytest.raises(NotFiniteQuantity):
            power_many(system, X1, X2)


def _constant_system(f, g, friction=None):
    """A system with constant field f and constant potential gradient g."""
    field = VectorField(lambda x1, x2: f, divergence_fn=lambda x1, x2: -1.0)
    phi = ScalarField(lambda x1, x2: 0.0 * x1, gradient_fn=lambda x1, x2: g)
    return SystemSpec("constant", field, potential=phi, friction=friction)


@pytest.mark.parametrize(
    "system, quantity",
    [
        # f^T S f overflows while f and grad(phi) are finite
        (_constant_system((1e200, 0.0), (1e-200, 0.0), friction=Matrix2.identity()), "dissipation power"),
        # grad(phi) . f overflows while f^T S f is finite
        (_constant_system((10.0, 0.0), (1e308, 0.0), friction=Matrix2.identity()), "rate of change of the potential"),
        # h_p = -rate = -1e308 are finite, |rate| - h_p overflows
        (_constant_system((1.0, 0.0), (1e308, 0.0)), "identity gap"),
    ],
    ids=["power", "rate", "gap"],
)
def test_report_many_names_an_overflowing_product(system, quantity):
    x1, x2 = np.array([0.5, 1.0]), np.array([0.0, 0.0])
    with pytest.raises(NotFiniteQuantity) as excinfo:
        report_many(system, x1, x2)
    assert excinfo.value.quantity == quantity
    if quantity == "rate of change of the potential":
        with pytest.raises(NotFiniteQuantity):
            phi_rate_many(system, x1, x2)


def test_scalar_report_rejects_a_non_finite_verdict_input():
    # the scalar report is the N = 1 case and inherits the rule
    with pytest.raises(NotFiniteQuantity):
        report(_poisoned_system("divergence", math.nan), Point2(2.0, 0.5))
    with pytest.raises(NotFiniteQuantity):
        divergence(_poisoned_system("divergence", math.inf), Point2(2.0, 0.5))
    assert report(_poisoned_system("divergence", math.nan), Point2(1.0, 0.5)).verdict_divergence == EXPANDING
