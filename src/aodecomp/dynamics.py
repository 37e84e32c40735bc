"""Trajectory integration and trajectory-level checks.

Fixed-step classical Runge-Kutta keeps runs bit-reproducible, which the
command-line layer relies on for golden files. There is one RK4 source text,
``_RK4``. A step loop is compiled from it for each field stage on first use
and cached by that text: a field built by ``VectorField.from_stage`` has its
stage inlined four times a step, on plain floats, and any other field gets
the same loop calling its ``fn``. The field's ``fn`` is compiled from the
same stage, so the stepper and the field compute the same bits. The
Cartesian and the polar chart run alike. Along a
trajectory the sampled columns carry the potential, its rate of change, the
dissipation power and the divergence, so the dissipation criteria can be
audited against time series as well as closed forms; they are computed on
all states at once by the batched functions of ``dissipation``.
"""

from __future__ import annotations

import functools
import math
import textwrap
from array import array

import numpy as np

from . import catalog, dissipation
from .core import Point2, SystemSpec, check_finite, define, record
from .errors import MissingPotential, NonFinite
from .tolerances import BLOWUP_LIMIT, master_tol

DEFAULT_DT = 1e-3
# Most RK4 steps one trajectory may take (t_end / dt), so a tiny dt is an
# input error instead of a loop that runs until memory runs out; 50 times the
# longest run the benchmark makes.
MAX_STEPS = 1_000_000


@record
class Trajectory:
    """Uniformly sampled solution; x rows are the system's coordinates, (r, theta) for the polar form."""

    t: np.ndarray
    x: np.ndarray
    dt: float
    phi: np.ndarray | None = None
    phi_rate: np.ndarray | None = None
    h_p: np.ndarray | None = None
    div_f: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.t)


@record
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


def _steps(dt: float, t_end: float) -> int:
    """The number of RK4 steps of a run, ``round(t_end / dt)``.

    The last sample is at ``n * dt``, so it can pass ``t_end`` by up to dt/2:
    dt = 0.001 and t_end = 0.0015 take 2 steps and end at t = 0.002.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if not t_end >= dt:
        raise ValueError(f"t_end must be at least dt, got t_end={t_end!r}, dt={dt!r}")
    if not t_end / dt <= MAX_STEPS:
        raise ValueError(f"t_end / dt must be at most MAX_STEPS = {MAX_STEPS}, got t_end={t_end!r}, dt={dt!r}")
    return int(round(t_end / dt))


# The step loop, with {stage} standing for a stage indented into the loop
# body. It returns the states, as two float64 buffers (array "d") filled by
# index, and the step whose state left [-limit, limit], or None. A stage
# binds only f1, f2 and _-prefixed names, so it cannot clobber the loop's own
# variables.
_RK4 = """\
def loop(fn, a, b, dt, n, limit):
    x1s, x2s = array("d", [a]) * (n + 1), array("d", [b]) * (n + 1)
    half, low = 0.5 * dt, -limit
    for i in range(1, n + 1):
        try:
            x1, x2 = a, b
{stage}
            k1a, k1b = f1, f2
            x1, x2 = a + half * k1a, b + half * k1b
{stage}
            k2a, k2b = f1, f2
            x1, x2 = a + half * k2a, b + half * k2b
{stage}
            k3a, k3b = f1, f2
            x1, x2 = a + dt * k3a, b + dt * k3b
{stage}
            k4a, k4b = f1, f2
            a = a + dt * (k1a + 2.0 * (k2a + k3a) + k4a) / 6.0
            b = b + dt * (k1b + 2.0 * (k2b + k3b) + k4b) / 6.0
        except OverflowError:  # a float power out of range, e.g. r**3
            a = math.inf
        # false for NaN and +-inf as well
        if not (low <= a <= limit and low <= b <= limit):
            return x1s[:i], x2s[:i], i
        x1s[i] = a
        x2s[i] = b
    return x1s, x2s, None
"""
# The stage of a field with no stage of its own.
_CALL_FN = "f1, f2 = fn(x1, x2)"


# Bounded, so a program that steps many distinct linear systems does not keep
# every loop it ever compiled; the catalog needs ten.
@functools.lru_cache(maxsize=64)
def _loop(stage: str):
    """The step loop compiled with ``stage`` inlined, once per distinct text."""
    source = _RK4.format(stage=textwrap.indent(stage, " " * 12))
    return define(source, "loop", {"array": array, "math": math})


def integrate(sys: SystemSpec, x0: Point2, dt: float = DEFAULT_DT, t_end: float = 10.0) -> Trajectory:
    """Integrate x' = f(x) from x0 with fixed-step RK4.

    Fills potential, rate and power columns when the system has a potential;
    the divergence column is always present. Raises NonFinite (carrying the
    partial trajectory) once a coordinate overflows, stops being finite or
    leaves [-1e12, 1e12], and NotFiniteQuantity if a sampled column is not
    finite at a state inside that box.
    """
    n = _steps(dt, t_end)
    field = sys.field
    loop = _loop(_CALL_FN if field.stage is None else field.stage)
    x1s, x2s, blown = loop(field.fn, x0.x1, x0.x2, dt, n, BLOWUP_LIMIT)
    failure = None if blown is None else f"state blew up at t={blown * dt!r} integrating {sys.name!r}"

    x1, x2 = np.frombuffer(x1s), np.frombuffer(x2s)
    phi = rate = h_p = None
    if sys.potential is not None:
        h_p, rate = dissipation.power_many(sys, x1, x2)
        phi = sys.potential.evaluate_many(x1, x2)
    traj = Trajectory(
        t=np.arange(len(x1)) * dt, x=np.column_stack((x1, x2)), dt=dt,
        phi=phi, phi_rate=rate, h_p=h_p, div_f=sys.field.divergence_many(x1, x2),
    )
    if failure is not None:
        raise NonFinite(failure, trajectory=traj)
    return traj


def integrate_polar(r0: float, theta0: float, dt: float = DEFAULT_DT, t_end: float = 10.0) -> Trajectory:
    """``integrate`` of the builtin oscillator in polar form, ``catalog.HOPF_POLAR``, from (r0, theta0)."""
    if r0 <= 0.0:
        raise ValueError(f"r0 must be positive, got {r0!r}")
    return integrate(catalog.HOPF_POLAR, Point2(r0, theta0), dt=dt, t_end=t_end)


def check_monotonicity(traj: Trajectory) -> float:
    """Largest increase of the potential between consecutive samples.

    A value at or below 1e-9 certifies numerical monotone nonincrease.
    """
    if traj.phi is None:
        raise MissingPotential("trajectory has no potential column")
    if len(traj.phi) < 2:
        return 0.0
    return float(np.max(np.diff(traj.phi)))


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
    check_finite("sample grid", x1, x2)
    rates = dissipation.phi_rate_many(sys, x1, x2)
    violations = [
        (Point2(x1[i].item(), x2[i].item()), rates[i].item()) for i in np.flatnonzero(rates > tol).tolist()
    ]
    infimum = float(sys.potential.evaluate_many(x1, x2).min())

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
