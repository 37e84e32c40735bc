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

The frame is computed on N points at once by ``decompose_many``, with the
equilibria and the singular points as boolean masks; ``point_decomposition``
is its N = 1 case, so the frame formula, the overflow rescale and the
equilibrium rule (``equilibrium_mask``) each exist once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Point2, SystemSpec
from .errors import EquilibriumPoint, MissingPotential, NotFiniteQuantity
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


@dataclass(frozen=True)
class DecompositionColumns:
    """``point_decomposition`` at N points: the drift f, the potential gradient g
    and the frame as float64 columns, with two boolean masks.

    The frame is undefined at an ``equilibrium`` row, which holds NaN in g and
    in the four frame columns; a ``singular_on_isopotential`` row holds NaN in
    diffusion and gyration.
    """

    f1: np.ndarray
    f2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    friction: np.ndarray
    transverse: np.ndarray
    diffusion: np.ndarray
    gyration: np.ndarray
    equilibrium: np.ndarray
    singular_on_isopotential: np.ndarray


def equilibrium_mask(x1: np.ndarray, x2: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Rows that are equilibria: |f| <= EQUILIBRIUM_TOL * (1 + |x|), with np.hypot norms."""
    return np.hypot(f1, f2) <= EQUILIBRIUM_TOL * (1.0 + np.hypot(x1, x2))


def friction_at(f1, f2, g1, g2):
    """s = -(grad(phi) . f) / (f . f) on coordinates (floats or float64 arrays)."""
    return -(g1 * f1 + g2 * f2) / (f1 * f1 + f2 * f2)


def transverse_at(f1, f2, g1, g2):
    """t = (f1 * d2(phi) - f2 * d1(phi)) / (f . f) on coordinates (floats or float64 arrays)."""
    return (f1 * g2 - f2 * g1) / (f1 * f1 + f2 * f2)


def decompose_many(sys: SystemSpec, x1: np.ndarray, x2: np.ndarray) -> DecompositionColumns:
    """The frame at N points; requires a potential.

    The potential gradient is evaluated off the equilibria only. Raises
    NotFiniteQuantity where the field, or the gradient there, is not finite;
    its row indexes x1 and x2.
    Where f . f, grad(phi) . f or f1 d2(phi) - f2 d1(phi) overflows, s and t
    (homogeneous of degree -1 in f, 1 in grad(phi)) are computed from both
    divided by their largest components and scaled back by g_max / f_max.
    """
    if sys.potential is None:
        raise MissingPotential(f"system {sys.name!r} has no potential")
    f1, f2 = sys.field.evaluate_many(x1, x2)
    with np.errstate(all="ignore"):  # an overflowing |f| or product is handled below
        equilibrium = equilibrium_mask(x1, x2, f1, f2)
        moving = ~equilibrium
        g1, g2 = np.full(f1.shape, np.nan), np.full(f1.shape, np.nan)
        # an equilibrium's g stays NaN, and so does its whole frame
        try:
            g1[moving], g2[moving] = sys.potential.gradient_many(x1[moving], x2[moving])
        except NotFiniteQuantity as exc:  # its row counts the moving rows only
            exc.row = int(np.flatnonzero(moving)[exc.row])
            raise
        overflow = ~(np.isfinite(f1 * f1 + f2 * f2) & np.isfinite(g1 * f1 + g2 * f2) & np.isfinite(f1 * g2 - f2 * g1))
        f_max = np.where(overflow, np.maximum(abs(f1), abs(f2)), 1.0)
        g_max = np.where(overflow, np.maximum(abs(g1), abs(g2)), 1.0)
        g_max[g_max == 0.0] = 1.0
        frame = (f1 / f_max, f2 / f_max, g1 / g_max, g2 / g_max)
        s = friction_at(*frame) * (g_max / f_max)
        t = transverse_at(*frame) * (g_max / f_max)
        norm2 = s * s + t * t
        singular = norm2 <= SINGULAR_SPLIT_TOL
        d, q = np.where(singular, np.nan, s / norm2), np.where(singular, np.nan, -t / norm2)
    return DecompositionColumns(f1, f2, g1, g2, s, t, d, q, equilibrium, singular)


def point_decomposition(sys: SystemSpec, x: Point2) -> PointDecomposition:
    """Decompose the system at x, as ``decompose_many`` at one point; requires a
    potential and raises EquilibriumPoint at an equilibrium."""
    cols = decompose_many(sys, np.array([x.x1]), np.array([x.x2]))
    row = {name: column[0].item() for name, column in vars(cols).items()}
    if row["equilibrium"]:
        raise EquilibriumPoint(f"{x.as_tuple()} is an equilibrium of {sys.name!r}")
    singular = row["singular_on_isopotential"]
    return PointDecomposition(
        at=x, friction=row["friction"], transverse=row["transverse"],
        drift=Point2(row["f1"], row["f2"]), potential_gradient=Point2(row["g1"], row["g2"]),
        diffusion=None if singular else row["diffusion"], gyration=None if singular else row["gyration"],
        singular_on_isopotential=singular,
    )
