"""Shared helpers for the test suite: seeded random draws and fixtures."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from aodecomp import (
    DiffusionParams, Matrix2, Point2, ScalarField, SystemSpec, VectorField, get, integrate, integrate_polar,
)
from aodecomp.dissipation import power_many


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


def reversed_system(sys: SystemSpec) -> SystemSpec:
    """Time-reversed copy (negated field), used as a sanity inversion."""
    f = sys.field.fn

    def negated(x1, x2):
        f1, f2 = f(x1, x2)
        return -f1, -f2

    return SystemSpec(f"{sys.name}_reversed", VectorField(negated), potential=sys.potential)


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
