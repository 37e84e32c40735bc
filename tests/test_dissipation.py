"""Dissipation power vs divergence: fixtures, identity, verdicts."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aodecomp import (
    Matrix2,
    MissingPotential,
    NotPSD,
    Point2,
    SystemSpec,
    VectorField,
    assemble_decomposition,
    dissipation_power,
    divergence,
    get,
    phi_rate,
    report,
    solve_gyration,
)
from aodecomp.dissipation import CONSERVATIVE, DISSIPATIVE, EXPANDING
from helpers import random_diffusion, random_matrix_nonzero_trace, random_point


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
    s = -(g.dot(f)) / f.dot(f)
    power = dissipation_power(Matrix2.diagonal(s, s), f)
    assert abs(power - 0.140625) <= 1e-15


def test_power_zero_on_cycle(hopf):
    x = Point2(1.0, 0.0)
    rep = report(hopf.system, x)
    assert rep.h_p == 0.0


def test_power_saddle_fixture(saddle):
    dec = saddle.decomposition
    x = Point2(1.0, 0.0)
    power = dissipation_power(dec.friction, saddle.system.field.evaluate(x))
    assert abs(power - 0.5) <= 1e-15
    # closed form for the trace-zero case: l1^2 (d22 x1^2 + d11 x2^2) / (d11 d22 + q^2)
    closed = 1.0 * (1.0 * 1.0 + 1.0 * 0.0) / (1.0 + 1.0)
    assert abs(power - closed) <= 1e-15


def test_power_rejects_non_psd():
    with pytest.raises(NotPSD):
        dissipation_power(Matrix2.diagonal(-1.0, 1.0), Point2(1.0, 0.0))
    with pytest.raises(NotPSD):
        dissipation_power(Matrix2(1.0, 0.5, -0.5, 1.0), Point2(1.0, 0.0))


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
    bare = VectorField(evaluate=hopf.system.field.evaluate)
    sys = SystemSpec.analytic("hopf_no_analytic", bare)
    rng = np.random.default_rng(79)
    for _ in range(20):
        x = random_point(rng)
        assert abs(divergence(sys, x) - hopf.system.field.divergence(x)) <= 1e-6


def test_phi_rate_fixtures(hopf, saddle):
    assert abs(phi_rate(hopf.system, Point2(0.5, 0.0)) - (-0.140625)) <= 1e-15
    assert phi_rate(hopf.system, Point2(1.0, 0.0)) == 0.0
    assert phi_rate(saddle.system, Point2(0.0, 0.0)) == 0.0


def test_phi_rate_requires_potential():
    bare = SystemSpec.analytic("bare", VectorField(evaluate=lambda p: Point2(1.0, 0.0)))
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
    rep = report(saddle.system, Point2(1.0, 0.0), s_matrix=saddle.decomposition.friction)
    assert abs(rep.h_p - 0.5) <= 1e-15
    assert rep.div_f == 0.0
    assert rep.agree is False


def test_report_center_grid_agrees():
    center = get("center_conservative")
    rng = np.random.default_rng(83)
    for _ in range(100):
        x = random_point(rng)
        rep = report(center.system, x, s_matrix=center.decomposition.friction)
        assert rep.h_p <= 1e-12
        assert abs(rep.div_f) <= 1e-12
        assert rep.verdict_power == CONSERVATIVE
        assert rep.verdict_divergence == CONSERVATIVE
        assert rep.agree is True


def test_report_divergence_only_without_potential():
    bare = SystemSpec.analytic(
        "bare", VectorField(evaluate=lambda p: Point2(-p.x1, -p.x2), analytic_divergence=lambda p: -2.0)
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
        sys = SystemSpec.linear("random", a, potential=dec.potential())
        for _ in range(5):
            x = random_point(rng)
            rep = report(sys, x, s_matrix=dec.friction)
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
