"""Pointwise decomposition of a nonlinear field with a known potential.

At any non-equilibrium state x the frame (S + T) f = -grad(phi) with
S = s*I and T = t*[[0,1],[-1,0]] pins both scalars uniquely:

    s = -(grad(phi) . f) / (f . f)
    t = (f1 * d2(phi) - f2 * d1(phi)) / (f . f)

Where s^2 + t^2 is nonzero the frame inverts to the dual form
f = -(D + Q) grad(phi) with D = d*I, Q = q*[[0,1],[-1,0]]:

    d = s / (s^2 + t^2),   q = -t / (s^2 + t^2).

On the isopotential locus where friction and transverse both vanish (the
limit cycle of the builtin oscillator) the dual pair does not exist and the
decomposition is marked singular instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Point2, SystemSpec
from .errors import EquilibriumPoint, MissingPotential
from .tolerances import EQUILIBRIUM_TOL, SINGULAR_SPLIT_TOL


@dataclass(frozen=True)
class PointDecomposition:
    """Friction/transverse (and, where invertible, diffusion/gyration) at a point."""

    at: Point2
    friction: float
    transverse: float
    drift: Point2
    potential_gradient: Point2
    diffusion: float | None
    gyration: float | None
    singular_on_isopotential: bool


def _check_not_equilibrium(f_val: Point2) -> None:
    if f_val.norm() <= EQUILIBRIUM_TOL:
        raise EquilibriumPoint(
            f"field value {f_val.as_tuple()} is an equilibrium; the pointwise "
            "construction is undefined at fixed points"
        )


def _equilibrium(f_norm, x_norm):
    """The equilibrium rule on norms: |f| <= EQUILIBRIUM_TOL * (1 + |x|)."""
    return f_norm <= EQUILIBRIUM_TOL * (1.0 + x_norm)


def equilibrium_mask(x1: np.ndarray, x2: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Rows that are equilibria, decided with math.hypot norms as the scalar path does.

    np.hypot can differ from math.hypot by 1 ulp, so rows whose decision
    flips within a 1e-12 relative change of |f| are decided again with math.hypot.
    """
    f_norm, x_norm = np.hypot(f1, f2), np.hypot(x1, x2)
    mask = _equilibrium(f_norm, x_norm)
    near = _equilibrium(f_norm * (1.0 - 1e-12), x_norm) != _equilibrium(f_norm * (1.0 + 1e-12), x_norm)
    for i in np.flatnonzero(near).tolist():
        mask[i] = _equilibrium(math.hypot(f1[i], f2[i]), math.hypot(x1[i], x2[i]))
    return mask


def friction_at(f1, f2, g1, g2):
    """s = -(grad(phi) . f) / (f . f) on coordinates (floats or float64 arrays)."""
    return -(g1 * f1 + g2 * f2) / (f1 * f1 + f2 * f2)


def friction_scalar(f_val: Point2, grad_phi: Point2) -> float:
    """Friction coefficient s = -(grad(phi) . f) / (f . f)."""
    _check_not_equilibrium(f_val)
    return friction_at(f_val.x1, f_val.x2, grad_phi.x1, grad_phi.x2)


def transverse_scalar(f_val: Point2, grad_phi: Point2) -> float:
    """Transverse coefficient t = (f1 * d2(phi) - f2 * d1(phi)) / (f . f)."""
    _check_not_equilibrium(f_val)
    return (f_val.x1 * grad_phi.x2 - f_val.x2 * grad_phi.x1) / f_val.dot(f_val)


def point_decomposition(sys: SystemSpec, x: Point2) -> PointDecomposition:
    """Decompose the system at x; requires a potential and a non-equilibrium x."""
    if sys.potential is None:
        raise MissingPotential(f"system {sys.name!r} has no potential")
    f_val = sys.field.evaluate(x)
    if _equilibrium(f_val.norm(), x.norm()):
        raise EquilibriumPoint(f"{x.as_tuple()} is an equilibrium of {sys.name!r}")
    grad_phi = sys.potential.gradient(x)
    s = friction_scalar(f_val, grad_phi)
    t = transverse_scalar(f_val, grad_phi)
    norm2 = s * s + t * t
    if norm2 <= SINGULAR_SPLIT_TOL:
        return PointDecomposition(
            at=x, friction=s, transverse=t, drift=f_val,
            potential_gradient=grad_phi, diffusion=None, gyration=None,
            singular_on_isopotential=True,
        )
    return PointDecomposition(
        at=x, friction=s, transverse=t, drift=f_val,
        potential_gradient=grad_phi, diffusion=s / norm2, gyration=-t / norm2,
        singular_on_isopotential=False,
    )
