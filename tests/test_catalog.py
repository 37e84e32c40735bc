"""Catalog registry: the 9 builtin systems, checked against closed forms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aodecomp import (
    EquilibriumPoint,
    MissingPotential,
    Point2,
    UnknownSystem,
    catalog,
    get,
    list_systems,
    lyapunov_equation_residual,
    phi_rate,
    point_decomposition,
    radial_solution,
)
from aodecomp.cli import main
from helpers import HOPF_FORMS, dot, random_point

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


def test_registry_refuses_an_entry_without_a_potential(monkeypatch):
    # grid and report need a potential, so the registry refuses an entry without one
    monkeypatch.setattr(catalog, "_hopf_system", lambda: catalog.HOPF_POLAR)
    with pytest.raises(MissingPotential, match="catalog entry 'hopf_limit_cycle' has no potential"):
        catalog._build_registry()
    assert all(get(name).system.potential is not None for name in list_systems())


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
        assert lyapunov_equation_residual(dec.a, dec.diffusion, dec.gyration.q) < 1e-10
        # friction + transverse inverts diffusion + gyration
        prod = (dec.friction + dec.transverse.matrix()) @ (
            dec.diffusion.matrix() + dec.gyration.matrix()
        )
        from aodecomp import Matrix2

        assert (prod - Matrix2.identity()).max_abs() <= 1e-10


def test_hopf_expected_closures_match_field_construction():
    entry = get("hopf_limit_cycle")
    exp = HOPF_FORMS
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
        r2 = x.x1**2 + x.x2**2
        assert abs(entry.system.potential.evaluate(x) - 0.25 * r2 * (r2 - 2.0)) <= 1e-12
        assert (entry.system.potential.gradient(x) - x.scaled(r2 - 1.0)).norm() <= 1e-12
        assert abs(entry.system.field.divergence(x) - 2.0 * (1.0 - 2.0 * r2)) <= 1e-12


def test_hopf_frame_identities_at_500_points():
    entry = get("hopf_limit_cycle")
    exp = HOPF_FORMS
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
        assert abs(entry.system.field.divergence(x) - 2.0 * (1.0 - 2.0 * r2)) <= 1e-12


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


LINEAR_NAMES = [name for name in EXPECTED_NAMES if get(name).decomposition is not None]
# the row naming the system, in each decompose document format
SYSTEM_ROW = {"json": '\n  "system": "{}",\n', "csv": "\nsystem,{}\n"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("at", [[], ["--at", "0.5,0.25"]])
@pytest.mark.parametrize("name", LINEAR_NAMES)
def test_linear_entry_decomposes_as_its_matrix_request(name, at, fmt, capsys):
    # the catalog builds its entry from A, D and q as decompose --matrix does; only "system" tells them apart
    dec = get(name).decomposition
    a, d = dec.a, dec.diffusion
    matrix = [
        "--matrix", ",".join(map(repr, [a.a11, a.a12, a.a21, a.a22])),
        "--d", ",".join(map(repr, [d.d11, d.d12, d.d22])), "--q", repr(dec.gyration.q),
    ]
    runs = []
    for source in (["--system", name], matrix):
        code = main(["decompose", *source, *at, "--format", fmt])
        runs.append((code, *capsys.readouterr()))
    (code, out, err), (code_matrix, out_matrix, err_matrix) = runs
    assert code == code_matrix
    assert err.replace(repr(name), "'custom'") == err_matrix
    # zero_matrix has an equilibrium at every point, so its --at requests write nothing
    assert out.count(SYSTEM_ROW[fmt].format(name)) == (code == 0)
    assert out.replace(SYSTEM_ROW[fmt].format(name), SYSTEM_ROW[fmt].format("custom")) == out_matrix
