"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with ``pytest -s``); a failing
criterion shows up as the test failure itself. Runtime bounds are asserted
where a criterion states one.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from aodecomp import (
    Point2,
    SystemSpec,
    assemble_decomposition,
    central_gradient,
    check_monotonicity,
    divergence,
    get,
    integrate,
    list_systems,
    lyapunov_equation_residual,
    phi_rate,
    point_decomposition,
    radial_solution,
    report,
    solve_gyration,
)
from aodecomp.cli import main as cli_main
from helpers import (
    cartesian_polar_distance, dot, friction_power, random_diffusion, random_matrix_nonzero_trace, random_point,
)

HOPF = get("hopf_limit_cycle")


def _circle_point(theta: float, radius: float = 1.0) -> Point2:
    return Point2(radius * math.cos(theta), radius * math.sin(theta))


def test_criterion_01_divergence_on_cycle():
    start = time.perf_counter()
    for k in range(100):
        x = _circle_point(2.0 * math.pi * k / 100.0)
        assert abs(divergence(HOPF.system, x) - (-2.0)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1 PASS: divergence = -2 within 1e-12 at 100 cycle points ({elapsed:.3f}s)")


def test_criterion_02_identity_rate_equals_power():
    start = time.perf_counter()
    rng = np.random.default_rng(211)
    for _ in range(1000):
        x = random_point(rng)
        rep = report(HOPF.system, x)
        assert rep.identity_gap <= 1e-9 * (1.0 + abs(rep.phi_rate))
    systems = 0
    while systems < 200:
        a = random_matrix_nonzero_trace(rng, min_trace=0.1)
        d = random_diffusion(rng)
        dec = assemble_decomposition(a, d, solve_gyration(a, d).q)
        u = dec.potential_matrix
        systems += 1
        pts = [Point2(float(x1), float(x2)) for x1, x2 in rng.uniform(-2.0, 2.0, (1000, 2))]
        xdots = [a.apply(x) for x in pts]
        powers = friction_power(dec.friction, [p.x1 for p in xdots], [p.x2 for p in xdots])
        for x, xdot, power in zip(pts, xdots, powers.tolist()):
            rate = dot(u.apply(x), xdot)
            assert abs(abs(rate) - power) <= 1e-9 * (1.0 + abs(rate))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        "criterion 2 PASS: | |dphi/dt| - H_P | <= 1e-9*(1+|dphi/dt|) at 1000 builtin "
        f"points and 200 random linear systems x 1000 points ({elapsed:.3f}s)"
    )


def test_criterion_03_criteria_disagreement(tmp_path):
    # the report command at r = 1 and r^2 = 1/2
    out_path = tmp_path / "report.json"
    code = cli_main(
        [
            "report", "--system", "hopf_limit_cycle",
            "--at", "1,0", "--at", f"{math.sqrt(0.5)!r},0",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    on_cycle, on_half = doc["points"]
    assert on_cycle["div_f"] == -2.0 and on_cycle["h_p"] == 0.0
    assert on_cycle["agree"] is False
    assert abs(on_half["div_f"]) <= 1e-9 and abs(on_half["h_p"] - 0.125) <= 1e-12
    assert on_half["agree"] is False

    saddle = get("saddle_tracezero")
    rng = np.random.default_rng(223)
    count = 0
    while count < 100:
        x = random_point(rng)
        if x.norm() == 0.0:
            continue
        count += 1
        rep = report(saddle.system, x)
        assert rep.div_f == 0.0
        assert rep.h_p > 0.0
        assert rep.agree is False
    print(
        "criterion 3 PASS: report disagrees at r=1 (div=-2, H_P=0) and r^2=1/2 "
        "(div=0, H_P=1/8); saddle has div=0 with H_P>0 at 100 points"
    )


def test_criterion_04_gyration_constraint_residual():
    start = time.perf_counter()
    for name in list_systems():
        entry = get(name)
        if entry.decomposition is not None:
            dec = entry.decomposition
            assert lyapunov_equation_residual(dec.a, dec.diffusion, dec.gyration) < 1e-10
    rng = np.random.default_rng(227)
    for _ in range(1000):
        a = random_matrix_nonzero_trace(rng, min_trace=0.1)
        d = random_diffusion(rng)
        sol = solve_gyration(a, d)
        assert sol.branch == "unique"
        assert lyapunov_equation_residual(a, d, sol.q) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(
        "criterion 4 PASS: constraint residual < 1e-10 for all catalog linear "
        f"entries and 1000 random unique-branch draws ({elapsed:.3f}s)"
    )


def test_criterion_05_frame_reconstruction():
    rng = np.random.default_rng(229)
    for name in list_systems():
        entry = get(name)
        if entry.system.potential is None:
            continue
        if entry.decomposition is not None:
            dec = entry.decomposition
            s_plus_t = dec.friction + dec.transverse.matrix()
            d_plus_q = dec.diffusion.matrix() + dec.gyration.matrix()
            u = dec.potential_matrix
            for _ in range(500):
                x = random_point(rng)
                f = entry.system.field.evaluate(x)
                grad = u.apply(x)
                assert (s_plus_t.apply(f) + grad).norm() <= 1e-9 * (1.0 + grad.norm())
                assert (d_plus_q.apply(grad) + f).norm() <= 1e-9 * (1.0 + f.norm())
        else:
            checked = 0
            while checked < 500:
                x = random_point(rng)
                f = entry.system.field.evaluate(x)
                if f.norm() <= 1e-8:
                    continue
                pd = point_decomposition(entry.system, x)
                if pd.singular_on_isopotential:
                    continue
                checked += 1
                s, t, d, q, g = pd.friction, pd.transverse, pd.diffusion, pd.gyration, pd.potential_gradient
                frame = Point2(s * f.x1 + t * f.x2 + g.x1, -t * f.x1 + s * f.x2 + g.x2)
                assert frame.norm() <= 1e-9 * (1.0 + g.norm())
                dual = Point2(d * g.x1 + q * g.x2 + f.x1, -q * g.x1 + d * g.x2 + f.x2)
                assert dual.norm() <= 1e-9 * (1.0 + f.norm())
    print(
        "criterion 5 PASS: (S+T)f = -grad(phi) and f = -(D+Q)grad(phi) within "
        "1e-9 at 500 points for every potential-bearing catalog entry"
    )


def test_criterion_06_trajectory_convergence():
    start = time.perf_counter()
    for r0 in (0.1, 0.5, 2.0):
        traj = integrate(HOPF.system, Point2(r0, 0.0), dt=1e-3, t_end=10.0)
        radius = float(np.hypot(traj.x[-1, 0], traj.x[-1, 1]))
        assert abs(radius - 1.0) < 1e-5
        assert abs(radius - radial_solution(r0, 10.0)) < 1e-5
        assert check_monotonicity(traj) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        "criterion 6 PASS: |r(10)-1| < 1e-5 matching the closed-form radius, "
        f"potential nonincreasing within 1e-9, from r0 in (0.1, 0.5, 2.0) ({elapsed:.3f}s)"
    )


def test_criterion_07_polar_cartesian_equivalence():
    starts = (
        Point2(0.1, 0.0),
        Point2(0.5, 0.0),
        Point2(2.0, 0.0),
        Point2(0.0, 0.7),
        Point2(-1.3, 0.4),
    )
    worst = max(cartesian_polar_distance(x0, dt=1e-3, t_end=10.0) for x0 in starts)
    assert worst <= 1e-6
    print(f"criterion 7 PASS: polar and Cartesian orbits agree within 1e-6 (worst {worst:.2e})")


def test_criterion_08_gradient_oracle():
    rng = np.random.default_rng(233)
    for name in list_systems():
        entry = get(name)
        phi = entry.system.potential
        if phi is None:
            continue
        assert phi.gradient_fn is not None
        for _ in range(500):
            x = random_point(rng)
            exact = phi.gradient(x)
            approx = Point2(*central_gradient(phi.fn, x.x1, x.x2))
            assert (approx - exact).norm() <= 1e-5 * (1.0 + exact.norm())
    print(
        "criterion 8 PASS: analytic gradients match central finite differences "
        "within 1e-5 relative at 500 points per catalog potential"
    )


def test_criterion_09_energy_bookkeeping():
    for r0 in (0.1, 0.5, 2.0):
        traj = integrate(HOPF.system, Point2(r0, 0.0), dt=1e-3, t_end=10.0)
        integral = float(np.trapezoid(traj.h_p, traj.t))
        drop = float(traj.phi[0] - traj.phi[-1])
        assert abs(integral - drop) <= 1e-4
    print(
        "criterion 9 PASS: trapezoidal integral of H_P equals phi(x(0)) - phi(x(10)) "
        "within 1e-4 along each criterion-6 trajectory"
    )


def test_criterion_10_conservative_fixtures():
    rng = np.random.default_rng(239)
    for name in ("center_conservative", "defective_nilpotent"):
        entry = get(name)
        for _ in range(500):
            x = random_point(rng, -3.0, 3.0)
            rep = report(entry.system, x)
            assert rep.h_p <= 1e-12
            assert abs(rep.div_f) <= 1e-12
    print(
        "criterion 10 PASS: center_conservative and defective_nilpotent report "
        "H_P <= 1e-12 and |div| <= 1e-12 at every sampled point"
    )
