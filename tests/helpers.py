"""Shared helpers for the test suite: seeded random draws and fixtures."""

from __future__ import annotations

import numpy as np

from aodecomp import DiffusionParams, Matrix2, Point2, ScalarField, SystemSpec, VectorField


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
