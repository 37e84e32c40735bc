"""The two dissipation criteria and their pointwise comparison.

Criterion 1 (physics): dissipation power H_P = xdot^T S xdot, nonnegative
for positive-semidefinite friction S.  S is the system's own friction matrix
(``SystemSpec.friction``) where it has one, otherwise the pointwise friction
scalar s * I, so a system has one H_P wherever it is evaluated: on a grid,
in a report or along a trajectory.  Criterion 2 (phase volume): the
divergence of the field.  Along any decomposition built by this library the
identity |d(phi)/dt| = H_P holds, because the transverse part does no work.
The two criteria need not agree: a report carries both verdicts and never
adjudicates between them.

Every quantity is computed on N points at once (``phi_rate_many``,
``power_many``, ``report_many``); the scalar ``divergence``, ``phi_rate``
and ``report`` are the N = 1 case, so each formula and each verdict rule
exists once. Batched results equal the loop over the scalar closures bit for
bit, because every closure keeps the scalar expression order. A batch
quantity that is NaN or infinite at any point raises NotFiniteQuantity (a
ValueError) naming it, so no verdict is ever computed from such a value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Matrix2, Point2, SystemSpec, check_finite
from .errors import MissingPotential, NotPSD
from .field import equilibrium_mask, friction_at
from .tolerances import PSD_SLACK, master_tol

CONSERVATIVE = "conservative"
DISSIPATIVE = "dissipative"
EXPANDING = "expanding"

# Names of the batch quantities in NotFiniteQuantity messages.
POWER = "dissipation power"
RATE = "rate of change of the potential"

# Verdict codes in ReportColumns index this tuple.
VERDICTS = (CONSERVATIVE, DISSIPATIVE, EXPANDING)


@dataclass(frozen=True)
class DissipationReport:
    """Pointwise comparison of the power and divergence criteria.

    ``agree`` is true when both criteria give the same verdict; expanding
    divergence (positive value) never agrees with a power verdict.  The
    power-side fields are None for systems without a potential, where only
    the divergence criterion is available.
    """

    at: Point2
    div_f: float
    verdict_divergence: str
    h_p: float | None = None
    phi_rate: float | None = None
    identity_gap: float | None = None
    verdict_power: str | None = None
    agree: bool | None = None


@dataclass(frozen=True)
class ReportColumns:
    """``report`` at N points: the fields of DissipationReport as columns, with
    verdicts as int8 codes into VERDICTS."""

    div_f: np.ndarray
    verdict_divergence: np.ndarray
    h_p: np.ndarray | None = None
    phi_rate: np.ndarray | None = None
    identity_gap: np.ndarray | None = None
    verdict_power: np.ndarray | None = None
    agree: np.ndarray | None = None


def _single(x: Point2) -> tuple[np.ndarray, np.ndarray]:
    return np.array([x.x1]), np.array([x.x2])


def _friction_power(s: Matrix2, f1, f2):
    """xdot^T S xdot on coordinates, after the symmetry and PSD checks on S."""
    scale = 1.0 + s.max_abs()
    if abs(s.a12 - s.a21) > PSD_SLACK * scale:
        raise NotPSD(f"friction matrix is not symmetric: {s.rows()}")
    if s.trace < -PSD_SLACK * scale or s.det < -PSD_SLACK * scale * scale:
        raise NotPSD(
            f"friction matrix is not positive semidefinite: trace={s.trace!r}, "
            f"det={s.det!r}"
        )
    return s.a11 * f1 * f1 + (s.a12 + s.a21) * f1 * f2 + s.a22 * f2 * f2


def divergence(sys: SystemSpec, x: Point2) -> float:
    """Divergence of the field at x; exactly trace(A) for linear systems."""
    return float(sys.field.divergence_many(*_single(x))[0])


def _rate(f1, f2, g1, g2):
    return g1 * f1 + g2 * f2


def phi_rate_many(sys: SystemSpec, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Rate of change of the potential along the flow, grad(phi) . f, at N points."""
    if sys.potential is None:
        raise MissingPotential(f"system {sys.name!r} has no potential")
    g1, g2 = sys.potential.gradient_many(x1, x2)
    f1, f2 = sys.field.evaluate_many(x1, x2)
    with np.errstate(all="ignore"):
        rate = _rate(f1, f2, g1, g2)
    check_finite(RATE, rate)
    return rate


def phi_rate(sys: SystemSpec, x: Point2) -> float:
    """Rate of change of the potential along the flow: grad(phi) . f."""
    return float(phi_rate_many(sys, *_single(x))[0])


def power_many(sys: SystemSpec, x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """H_P and d(phi)/dt at N points.

    H_P is xdot^T S xdot with the system's friction matrix S when it has one,
    otherwise the pointwise friction scalar times |xdot|^2, with H_P = 0 at
    equilibria (xdot = 0). The rate is None for a system without a potential.
    Raises NotFiniteQuantity where either is not finite.
    """
    if sys.friction is None and sys.potential is None:
        raise MissingPotential(f"system {sys.name!r} has no potential")
    f1, f2 = sys.field.evaluate_many(x1, x2)
    rate = None
    with np.errstate(all="ignore"):
        if sys.friction is not None:
            h_p = _friction_power(sys.friction, f1, f2)
        if sys.potential is not None:
            g1, g2 = sys.potential.gradient_many(x1, x2)
            if sys.friction is None:
                ff = f1 * f1 + f2 * f2
                h_p = np.where(equilibrium_mask(x1, x2, f1, f2), 0.0, friction_at(f1, f2, g1, g2) * ff)
            rate = _rate(f1, f2, g1, g2)
    check_finite(POWER, h_p)
    if rate is not None:
        check_finite(RATE, rate)
    return h_p, rate


def report_many(
    sys: SystemSpec, x1: np.ndarray, x2: np.ndarray, *, zero_tol: float | None = None
) -> ReportColumns:
    """``report`` at N points, as columns; raises NotFiniteQuantity where a column is not finite.

    The power side is computed first, so an overflowing field or potential
    gradient is named before the divergence.
    """
    tol = master_tol(zero_tol)
    h_p = rate = gap = None
    if sys.friction is not None or sys.potential is not None:
        h_p, rate = power_many(sys, x1, x2)
    div = sys.field.divergence_many(x1, x2)
    verdict_div = np.where(np.abs(div) <= tol, 0, np.where(div < 0.0, 1, 2)).astype(np.int8)
    if h_p is None:
        return ReportColumns(div_f=div, verdict_divergence=verdict_div)
    if rate is not None:
        with np.errstate(all="ignore"):
            gap = np.abs(np.abs(rate) - h_p)
        check_finite("identity gap", gap)
    verdict_power = np.where(np.abs(h_p) <= tol, 0, 1).astype(np.int8)
    return ReportColumns(
        div_f=div,
        verdict_divergence=verdict_div,
        h_p=h_p,
        phi_rate=rate,
        identity_gap=gap,
        verdict_power=verdict_power,
        agree=verdict_power == verdict_div,
    )


def report(sys: SystemSpec, x: Point2, *, zero_tol: float | None = None) -> DissipationReport:
    """Evaluate both criteria at x and compare their verdicts.

    The power side uses the system's friction matrix when it has one (linear
    decompositions), otherwise the pointwise friction construction from its
    potential. Without either, a divergence-only report is returned.
    """
    cols = vars(report_many(sys, *_single(x), zero_tol=zero_tol))
    row = {name: None if col is None else col[0].item() for name, col in cols.items()}
    for name in ("verdict_divergence", "verdict_power"):
        if row[name] is not None:
            row[name] = VERDICTS[row[name]]
    return DissipationReport(at=x, **row)
