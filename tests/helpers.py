"""Shared helpers for the test suite: seeded random draws and fixtures."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from aodecomp import (
    DiffusionParams, Matrix2, Point2, ScalarField, SystemSpec, VectorField, get, integrate, integrate_polar,
)
from aodecomp.dissipation import power_many
from aodecomp.tolerances import BLOWUP_LIMIT


def _r2(p: Point2) -> float:
    return p.x1 * p.x1 + p.x2 * p.x2


# Closed forms of the builtin oscillator's frame at a point. The gyration is
# defined only off the unit circle; its sign is fixed by inverting
# friction*I + transverse*J, giving -1/(1 - r^2).
HOPF_FORMS = SimpleNamespace(
    friction=lambda p: (1.0 - _r2(p)) ** 2 / (1.0 + (1.0 - _r2(p)) ** 2),
    transverse=lambda p: (1.0 - _r2(p)) / (1.0 + (1.0 - _r2(p)) ** 2),
    diffusion=lambda p: 1.0,
    gyration=lambda p: -1.0 / (1.0 - _r2(p)),
    dissipation_power=lambda p: _r2(p) * (_r2(p) - 1.0) ** 2,
)


def friction_power(s: Matrix2, xdot1, xdot2) -> np.ndarray:
    """xdot^T S xdot at each (xdot1, xdot2): ``power_many`` of x' = x with friction S, at x = xdot."""
    system = SystemSpec.linear("identity", Matrix2.identity(), friction=s)
    xdot1, xdot2 = np.atleast_1d(np.asarray(xdot1, dtype=float)), np.atleast_1d(np.asarray(xdot2, dtype=float))
    return power_many(system, xdot1, xdot2)[0]


def random_matrix(rng: np.random.Generator, lo: float = -2.0, hi: float = 2.0) -> Matrix2:
    return Matrix2(*(float(v) for v in rng.uniform(lo, hi, 4)))


def random_matrix_nonzero_trace(rng: np.random.Generator, min_trace: float = 0.1) -> Matrix2:
    while True:
        a = random_matrix(rng)
        if abs(a.trace) > min_trace:
            return a


def random_diffusion(rng: np.random.Generator, margin: float = 0.1) -> DiffusionParams:
    """Random positive-definite diffusion with a margin keeping D + Q invertible."""
    b = rng.uniform(-1.0, 1.0, (2, 2))
    m = b.T @ b + margin * np.eye(2)
    return DiffusionParams(float(m[0, 0]), float(m[0, 1]), float(m[1, 1]))


def random_point(rng: np.random.Generator, lo: float = -2.0, hi: float = 2.0) -> Point2:
    return Point2(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)))


def dot(a: Point2, b: Point2) -> float:
    return a.x1 * b.x1 + a.x2 * b.x2


def cartesian_polar_distance(x0: Point2, dt: float, t_end: float) -> float:
    """Largest distance between the oscillator's orbits from x0 integrated in
    the Cartesian and in the polar chart, the polar samples mapped back."""
    cart = integrate(get("hopf_limit_cycle").system, x0, dt=dt, t_end=t_end)
    pol = integrate_polar(x0.norm(), math.atan2(x0.x2, x0.x1), dt=dt, t_end=t_end)
    r, theta = pol.x[:, 0], pol.x[:, 1]
    return float(np.max(np.hypot(cart.x[:, 0] - r * np.cos(theta), cart.x[:, 1] - r * np.sin(theta))))


def plain_rk4(fn, x0: Point2, dt: float, t_end: float, name: str) -> tuple[np.ndarray, str | None]:
    """Classical RK4 of x' = fn(x) on floats, the reference for ``integrate``.

    Returns the states, one row per step up to the blow-up, and the message
    ``integrate`` raises there, or None. Like ``integrate``, a step stops
    when a coordinate leaves [-BLOWUP_LIMIT, BLOWUP_LIMIT] or a float power
    overflows.
    """
    x, y = x0.x1, x0.x2
    rows = [(x, y)]
    for i in range(1, int(round(t_end / dt)) + 1):
        try:
            p1, q1 = fn(x, y)
            p2, q2 = fn(x + 0.5 * dt * p1, y + 0.5 * dt * q1)
            p3, q3 = fn(x + 0.5 * dt * p2, y + 0.5 * dt * q2)
            p4, q4 = fn(x + dt * p3, y + dt * q3)
        except OverflowError:
            return np.array(rows), f"state blew up at t={i * dt!r} integrating {name!r}"
        x = x + dt * (p1 + 2.0 * (p2 + p3) + p4) / 6.0
        y = y + dt * (q1 + 2.0 * (q2 + q3) + q4) / 6.0
        if not (abs(x) <= BLOWUP_LIMIT and abs(y) <= BLOWUP_LIMIT):
            return np.array(rows), f"state blew up at t={i * dt!r} integrating {name!r}"
        rows.append((x, y))
    return np.array(rows), None


def reversed_system(sys: SystemSpec) -> SystemSpec:
    """Time-reversed copy: the negated field and closed-form divergence (if any), and the same potential.

    The copy has no friction matrix, so its dissipation power comes from the
    pointwise frame.
    """
    f, div = sys.field.fn, sys.field.divergence_fn

    def negated(x1, x2):
        f1, f2 = f(x1, x2)
        return -f1, -f2

    field = VectorField(negated, None if div is None else lambda x1, x2: -div(x1, x2))
    return SystemSpec(f"{sys.name}_reversed", field, potential=sys.potential)


def gradient_flow_system() -> SystemSpec:
    """Pure gradient descent on phi = ||x||^2 / 2; identity decomposition."""
    phi = ScalarField(lambda x1, x2: 0.5 * (x1 * x1 + x2 * x2), gradient_fn=lambda x1, x2: (x1, x2))
    return SystemSpec(
        "gradient_flow",
        VectorField(lambda x1, x2: (-x1, -x2), divergence_fn=lambda x1, x2: -2.0),
        potential=phi,
    )


def row_texts(rows: np.ndarray) -> list[str]:
    """The strings held in NUL-padded uint8 rows, as ``floatfmt.repr_many`` returns them.

    Only trailing NULs are padding: a NUL inside a row, or any other byte
    after the text, stays in the string and so fails a comparison with ``repr``.
    """
    from aodecomp.floatfmt import WIDTH

    assert rows.dtype == np.uint8 and rows.shape == (len(rows), WIDTH)
    return [text.decode() for text in np.ascontiguousarray(rows).view(f"S{WIDTH}").ravel().tolist()]


def column_texts(cells: tuple) -> list[str]:
    """The strings of one column as ``cli._float_cells`` returns it: its rows, read through its row index if it has one."""
    rows, index = cells
    if index is None:
        return row_texts(rows)
    assert index.dtype == np.int32 and index.ndim == 1
    return row_texts(rows[index])
