"""Numeric tolerances, collected in one place.

Every threshold used by the library is a named constant here. The master
tolerance (used for zero verdicts and report-level comparisons) can be
overridden through the ``AODECOMP_TOL`` environment variable or passed
explicitly to the functions that accept a ``zero_tol`` argument.
"""

from __future__ import annotations

import math
import os

MASTER_TOL_ENV = "AODECOMP_TOL"

# Zero verdicts and identity-gap comparisons in dissipation reports.
DEFAULT_MASTER_TOL = 1e-9

# invert2 treats |det| <= SINGULAR_DET_TOL * (1 + max|entry|^2) as singular.
SINGULAR_DET_TOL = 1e-12

# Residual of the gyration constraint accepted as "solved".
LYAPUNOV_RESIDUAL_TOL = 1e-10

# trace(A) counts as zero below TRACE_ZERO_TOL * (1 + max|A|).
TRACE_ZERO_TOL = 1e-10

# Eigenvalue discriminant below SPECTRUM_TOL * (1 + max|A|)^2 counts as repeated.
SPECTRUM_TOL = 1e-10

# ||f(x)|| <= EQUILIBRIUM_TOL * (1 + ||x||) marks an equilibrium point.
EQUILIBRIUM_TOL = 1e-10

# friction^2 + transverse^2 below this cannot be inverted (isopotential locus).
SINGULAR_SPLIT_TOL = 1e-20

# Slack for positive-semidefiniteness checks on friction matrices.
PSD_SLACK = 1e-12

# Per-entry agreement required between the two potential-matrix routes.
POTENTIAL_SYMMETRY_TOL = 1e-9

# Central finite differences use step FD_STEP * (1 + |x_i|) per coordinate.
FD_STEP = 1e-6

# Integration aborts once any state coordinate exceeds this magnitude.
BLOWUP_LIMIT = 1e12


def master_tol(override: float | None = None) -> float:
    """Resolve the master tolerance: explicit override, env var, default.

    Raises ValueError for a NaN, infinite or negative tolerance, which would
    turn every zero verdict into a wrong one.
    """
    if override is not None:
        tol, source = float(override), "zero_tol"
    else:
        raw = os.environ.get(MASTER_TOL_ENV)
        if not raw:
            return DEFAULT_MASTER_TOL
        tol, source = float(raw), MASTER_TOL_ENV
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{source} must be a finite nonnegative tolerance, got {tol!r}")
    return tol
