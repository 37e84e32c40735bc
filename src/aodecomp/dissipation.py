"""The two dissipation criteria and their pointwise comparison.

Criterion 1 (physics): dissipation power H_P = xdot^T S xdot, nonnegative
for positive-semidefinite friction S.  Criterion 2 (phase volume): the
divergence of the field.  Along any decomposition built by this library the
identity |d(phi)/dt| = H_P holds, because the transverse part does no work.
The two criteria need not agree: a report carries both verdicts and never
adjudicates between them.

Every quantity is computed on N points at once (``phi_rate_many``,
``power_many``, ``report_many``); the scalar ``divergence``, ``phi_rate``
and ``report`` are the N = 1 case, so each formula and each verdict rule
exists once. Batched results equal the loop over the scalar closures bit for
bit, because every closure keeps the scalar expression order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Matrix2, Point2, SystemSpec
from .errors import MissingPotential, NotPSD
from .field import equilibrium_mask, friction_at
from .tolerances import PSD_SLACK, master_tol

CONSERVATIVE = "conservative"
DISSIPATIVE = "dissipative"
EXPANDING = "expanding"

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


def _friction_power(s_matrix: Matrix2, f1, f2):
    """xdot^T S xdot on coordinates, after the symmetry and PSD checks on S."""
    scale = 1.0 + s_matrix.max_abs()
    if abs(s_matrix.a12 - s_matrix.a21) > PSD_SLACK * scale:
        raise NotPSD(f"friction matrix is not symmetric: {s_matrix.rows()}")
    if s_matrix.trace < -PSD_SLACK * scale or s_matrix.det < -PSD_SLACK * scale * scale:
        raise NotPSD(
            f"friction matrix is not positive semidefinite: trace={s_matrix.trace!r}, "
            f"det={s_matrix.det!r}"
        )
    return s_matrix.a11 * f1 * f1 + (s_matrix.a12 + s_matrix.a21) * f1 * f2 + s_matrix.a22 * f2 * f2


def dissipation_power(s_matrix: Matrix2, xdot: Point2) -> float:
    """Quadratic form xdot^T S xdot for a symmetric PSD friction matrix.

    Raises NotPSD when S fails symmetry or semidefiniteness beyond slack.
    """
    return _friction_power(s_matrix, xdot.x1, xdot.x2)


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
        return _rate(f1, f2, g1, g2)


def phi_rate(sys: SystemSpec, x: Point2) -> float:
    """Rate of change of the potential along the flow: grad(phi) . f."""
    return float(phi_rate_many(sys, *_single(x))[0])


def power_many(
    sys: SystemSpec, x1: np.ndarray, x2: np.ndarray, s_matrix: Matrix2 | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """H_P and d(phi)/dt at N points.

    H_P uses the explicit friction matrix when one is supplied, otherwise the
    pointwise friction scalar, with H_P = 0 at equilibria (xdot = 0). The
    rate is None for a system without a potential.
    """
    if s_matrix is None and sys.potential is None:
        raise MissingPotential(f"system {sys.name!r} has no potential")
    f1, f2 = sys.field.evaluate_many(x1, x2)
    with np.errstate(all="ignore"):
        if s_matrix is not None:
            h_p = _friction_power(s_matrix, f1, f2)
            if sys.potential is None:
                return h_p, None
        g1, g2 = sys.potential.gradient_many(x1, x2)
        if s_matrix is None:
            ff = f1 * f1 + f2 * f2
            h_p = np.where(equilibrium_mask(x1, x2, f1, f2), 0.0, friction_at(f1, f2, g1, g2) * ff)
        return h_p, _rate(f1, f2, g1, g2)


def report_many(
    sys: SystemSpec,
    x1: np.ndarray,
    x2: np.ndarray,
    *,
    s_matrix: Matrix2 | None = None,
    zero_tol: float | None = None,
) -> ReportColumns:
    """``report`` at N points, as columns."""
    tol = master_tol(zero_tol)
    div = sys.field.divergence_many(x1, x2)
    verdict_div = np.where(np.abs(div) <= tol, 0, np.where(div < 0.0, 1, 2)).astype(np.int8)
    if s_matrix is None and sys.potential is None:
        return ReportColumns(div_f=div, verdict_divergence=verdict_div)
    h_p, rate = power_many(sys, x1, x2, s_matrix)
    with np.errstate(all="ignore"):
        gap = np.abs(np.abs(rate) - h_p) if rate is not None else None
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


def report(
    sys: SystemSpec,
    x: Point2,
    *,
    s_matrix: Matrix2 | None = None,
    zero_tol: float | None = None,
) -> DissipationReport:
    """Evaluate both criteria at x and compare their verdicts.

    The power side uses the explicit friction matrix when one is supplied
    (linear decompositions), otherwise the pointwise friction construction
    from the system's potential.  Without either, a divergence-only report
    is returned.
    """
    cols = vars(report_many(sys, *_single(x), s_matrix=s_matrix, zero_tol=zero_tol))
    row = {name: None if col is None else col[0].item() for name, col in cols.items()}
    for name in ("verdict_divergence", "verdict_power"):
        if row[name] is not None:
            row[name] = VERDICTS[row[name]]
    return DissipationReport(at=x, **row)
