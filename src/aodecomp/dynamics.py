"""Trajectory integration and trajectory-level checks.

Fixed-step classical Runge-Kutta keeps runs bit-reproducible, which the
command-line layer relies on for golden files. The stepper calls the field's
coordinate closure on plain floats, one trajectory at a time. Along a
trajectory the sampled columns carry the potential, its rate of change, the
dissipation power and the divergence, so the dissipation criteria can be
audited against time series as well as closed forms; they are computed on
all states at once by the batched functions of ``dissipation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import catalog, dissipation
from .core import CoordFn, Point2, SystemSpec, check_finite
from .errors import MissingPotential, NonFinite
from .tolerances import BLOWUP_LIMIT, master_tol

DEFAULT_DT = 1e-3


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution; x rows are (x1, x2), or (r, theta) in polar."""

    t: np.ndarray
    x: np.ndarray
    dt: float
    method: str
    phi: np.ndarray | None = None
    phi_rate: np.ndarray | None = None
    h_p: np.ndarray | None = None
    div_f: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class Definition2Report:
    """Grid audit of the two generalized-Lyapunov conditions.

    Any finite sample is a partial certificate only: ``note`` states the
    sampled region explicitly and the infimum is the grid minimum, never a
    global claim. ``radial_growth_ok`` reports whether the potential exceeds
    the grid minimum along 8 rays at radii 10, 100 and 1000.
    """

    region: str
    violations: list[tuple[Point2, float]]
    empirical_infimum: float
    radial_growth_ok: bool
    note: str


def _rk4(
    deriv: Callable[[float, float], tuple[float, float]],
    x1: float,
    x2: float,
    dt: float,
) -> tuple[float, float]:
    k1a, k1b = deriv(x1, x2)
    k2a, k2b = deriv(x1 + 0.5 * dt * k1a, x2 + 0.5 * dt * k1b)
    k3a, k3b = deriv(x1 + 0.5 * dt * k2a, x2 + 0.5 * dt * k2b)
    k4a, k4b = deriv(x1 + dt * k3a, x2 + dt * k3b)
    return (
        x1 + dt * (k1a + 2.0 * (k2a + k3a) + k4a) / 6.0,
        x2 + dt * (k1b + 2.0 * (k2b + k3b) + k4b) / 6.0,
    )


def _steps(dt: float, t_end: float) -> int:
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if not t_end >= dt:
        raise ValueError(f"t_end must be at least dt, got t_end={t_end!r}, dt={dt!r}")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"t_end / dt must be finite, got t_end={t_end!r}, dt={dt!r}")
    return int(round(t_end / dt))


def _stepped(deriv, a: float, b: float, dt: float, n: int, label: str, build) -> Trajectory:
    """``build(x1s, x2s)`` of n RK4 steps from (a, b).

    Raises NonFinite with the partial trajectory once a coordinate overflows,
    stops being finite or leaves [-1e12, 1e12].
    """
    x1s, x2s = [a], [b]
    for i in range(1, n + 1):
        try:
            a, b = _rk4(deriv, a, b, dt)
        except OverflowError:  # a float power out of range, e.g. r**3
            a = math.inf
        if not (math.isfinite(a) and math.isfinite(b)) or abs(a) > BLOWUP_LIMIT or abs(b) > BLOWUP_LIMIT:
            raise NonFinite(f"state blew up at t={i * dt!r} integrating {label}", trajectory=build(x1s, x2s))
        x1s.append(a)
        x2s.append(b)
    return build(x1s, x2s)


def integrate(sys: SystemSpec, x0: Point2, dt: float = DEFAULT_DT, t_end: float = 10.0) -> Trajectory:
    """Integrate x' = f(x) from x0 with fixed-step RK4.

    Fills potential, rate and power columns when the system has a potential;
    the divergence column is always present. Raises NonFinite (carrying the
    partial trajectory) once any coordinate leaves [-1e12, 1e12].
    """
    n = _steps(dt, t_end)

    def sampled(x1s: list[float], x2s: list[float]) -> Trajectory:
        x1, x2 = np.array(x1s, dtype=float), np.array(x2s, dtype=float)
        phi = rate = h_p = None
        if sys.potential is not None:
            h_p, rate = dissipation.power_many(sys, x1, x2)
            phi = sys.potential.evaluate_many(x1, x2)
        return Trajectory(
            t=np.arange(len(x1)) * dt, x=np.column_stack((x1, x2)), dt=dt, method="rk4",
            phi=phi, phi_rate=rate, h_p=h_p, div_f=sys.field.divergence_many(x1, x2),
        )

    f = sys.field.evaluate
    deriv = f.fn if isinstance(f, CoordFn) else lambda a, b: f(Point2(a, b)).as_tuple()
    return _stepped(deriv, x0.x1, x0.x2, dt, n, repr(sys.name), sampled)


def integrate_polar(r0: float, theta0: float, dt: float = DEFAULT_DT, t_end: float = 10.0) -> Trajectory:
    """Integrate the builtin oscillator in polar form: dr/dt = r - r^3, dtheta/dt = 1.

    Raises NonFinite (carrying the partial trajectory) once r overflows or
    leaves [-1e12, 1e12].
    """
    if r0 <= 0.0:
        raise ValueError(f"r0 must be positive, got {r0!r}")
    n = _steps(dt, t_end)

    def deriv(r: float, theta: float) -> tuple[float, float]:
        return r - r**3, 1.0

    def sampled(rs: list[float], thetas: list[float]) -> Trajectory:
        return Trajectory(t=np.arange(len(rs)) * dt, x=np.column_stack((rs, thetas)), dt=dt, method="rk4_polar")

    return _stepped(deriv, r0, theta0, dt, n, "the polar form", sampled)


def check_monotonicity(traj: Trajectory) -> float:
    """Largest increase of the potential between consecutive samples.

    A value at or below 1e-9 certifies numerical monotone nonincrease.
    """
    if traj.phi is None:
        raise MissingPotential("trajectory has no potential column")
    if len(traj.phi) < 2:
        return 0.0
    return float(np.max(np.diff(traj.phi)))


def cartesian_polar_agreement(x0: Point2, dt: float = DEFAULT_DT, t_end: float = 10.0) -> float:
    """Max pointwise distance between the Cartesian and polar integrations.

    Both runs integrate the builtin oscillator, once in each chart, then the
    polar samples are mapped back to Cartesian coordinates for comparison.
    """
    r0 = x0.norm()
    if r0 <= 0.0:
        raise ValueError("x0 must be nonzero")
    sys = catalog.get(catalog.HOPF).system
    cart = integrate(sys, x0, dt=dt, t_end=t_end)
    pol = integrate_polar(r0, math.atan2(x0.x2, x0.x1), dt=dt, t_end=t_end)
    px = pol.x[:, 0] * np.cos(pol.x[:, 1])
    py = pol.x[:, 0] * np.sin(pol.x[:, 1])
    return float(np.max(np.hypot(cart.x[:, 0] - px, cart.x[:, 1] - py)))


def definition2_check(
    sys: SystemSpec,
    region: tuple[float, float, float, float],
    samples_per_axis: int,
    zero_tol: float | None = None,
) -> Definition2Report:
    """Sample the potential-rate condition and the infimum over a box grid.

    The infimum over the whole state space cannot be verified by sampling;
    the report states the region it covered and adds a radial growth probe
    (potential along 8 rays at radii 10, 100, 1000 compared to the grid
    minimum) rather than claiming a global bound.
    """
    if sys.potential is None:
        raise MissingPotential(f"system {sys.name!r} has no potential")
    if samples_per_axis < 2:
        raise ValueError("samples_per_axis must be at least 2")
    xmin, xmax, ymin, ymax = region
    if not (xmin < xmax and ymin < ymax):
        raise ValueError(f"empty region {region!r}")
    tol = master_tol(zero_tol)

    xs = np.linspace(xmin, xmax, samples_per_axis)
    ys = np.linspace(ymin, ymax, samples_per_axis)
    x1, x2 = np.tile(xs, samples_per_axis), np.repeat(ys, samples_per_axis)
    check_finite(x1, x2)
    rates = dissipation.phi_rate_many(sys, x1, x2)
    violations = [
        (Point2(x1[i].item(), x2[i].item()), rates[i].item()) for i in np.flatnonzero(rates > tol).tolist()
    ]
    # fmin skips NaN, as the running min(infimum, value) of a sample loop does
    infimum = float(np.fmin.reduce(sys.potential.evaluate_many(x1, x2), initial=math.inf))

    radial_ok = True
    for radius in (10.0, 100.0, 1000.0):
        for k in range(8):
            angle = k * math.pi / 4.0
            probe = Point2(radius * math.cos(angle), radius * math.sin(angle))
            if sys.potential.evaluate(probe) <= infimum:
                radial_ok = False

    region_text = f"[{xmin}, {xmax}] x [{ymin}, {ymax}] ({samples_per_axis}x{samples_per_axis} grid)"
    if violations:
        note = f"{len(violations)} potential-rate violations found on {region_text}"
    else:
        note = f"no potential-rate violation found on {region_text}"
    note += "; infimum is the sampled grid minimum, not a global certificate"
    if not radial_ok:
        note += "; potential drops below the grid minimum along at least one probed ray"
    return Definition2Report(
        region=region_text,
        violations=violations,
        empirical_infimum=float(infimum),
        radial_growth_ok=radial_ok,
        note=note,
    )
