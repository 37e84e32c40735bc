"""Decomposition of planar linear systems x' = A x.

Given the drift matrix A and a positive-semidefinite diffusion matrix D, the
gyration coefficient q is the one unknown of the constraint equation

    A Q + Q A^T = A D - D A^T,        Q = q * [[0,1],[-1,0]],

which collapses to the scalar relation

    (a11 + a22) * q = -a21*d11 + (a11 - a22)*d12 + a12*d22.

Inverting D + Q and splitting into symmetric and antisymmetric parts yields
the friction matrix S and transverse coefficient t with S + T = [D+Q]^(-1).
The potential matrix U = -[D+Q]^(-1) A = -A^T [D-Q]^(-1) is symmetric exactly
when q satisfies the constraint, and phi(x) = x^T U x / 2 is the quadratic
potential with gradient U x.

The construction always takes this general path; the Jordan normal form of A
is classification metadata, never a code branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    AntisymScalar, CoordFn, DiffusionParams, Matrix2, Point2, ScalarField, invert2, sym_antisym_split,
)
from .errors import AsymmetricU
from .tolerances import POTENTIAL_SYMMETRY_TOL, SPECTRUM_TOL, TRACE_ZERO_TOL

REAL_DISTINCT = "real_distinct"
REPEATED_DIAGONALIZABLE = "repeated_diagonalizable"
REPEATED_DEFECTIVE = "repeated_defective"
COMPLEX_PAIR = "complex_pair"

UNIQUE = "unique"
FAMILY = "family"
INCONSISTENT = "inconsistent"

# Default gyration on the trace-zero family branch; any real value is valid
# there, and the branch tag tells callers the whole family works.
FAMILY_DEFAULT_Q = 1.0


@dataclass(frozen=True)
class SpectralClass:
    """Eigenvalue classification of a 2x2 matrix.

    kind/values pairs:
      real_distinct            (lam1, lam2) with lam1 > lam2
      repeated_diagonalizable  (lam,)  -- A is lam * identity
      repeated_defective       (lam,)  -- single eigenvector
      complex_pair             (alpha, beta) with beta > 0
    """

    kind: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class QSolution:
    """Outcome of solving the gyration constraint.

    branch "unique": q is the single solution (trace(A) != 0).
    branch "family": trace(A) = 0 and the constraint holds for every q;
        ``q`` carries the default and ``note`` the condition that was met.
    branch "inconsistent": trace(A) = 0 but the right-hand side does not
        vanish; ``residual`` carries it and the diffusion must be re-chosen.
    """

    branch: str
    q: float | None
    note: str = ""
    residual: float = 0.0


@dataclass(frozen=True)
class LinearDecomposition:
    """Bundle of a drift matrix with its constructed decomposition.

    friction + transverse.matrix() equals the inverse of
    diffusion + gyration.matrix(); potential_matrix is the symmetric U with
    gradient U x.  ``potential_asymmetry`` records the per-entry gap between
    the two computation routes for U before symmetrization.
    """

    a: Matrix2
    diffusion: DiffusionParams
    gyration: AntisymScalar
    friction: Matrix2
    transverse: AntisymScalar
    potential_matrix: Matrix2
    potential_asymmetry: float

    def potential(self) -> ScalarField:
        return quadratic_potential(self.potential_matrix)


def classify_spectrum(a: Matrix2) -> SpectralClass:
    """Classify the eigenvalues of A into the four planar normal-form types."""
    tr = a.trace
    disc = tr * tr - 4.0 * a.det
    scale = (1.0 + a.max_abs()) ** 2
    if disc > SPECTRUM_TOL * scale:
        root = math.sqrt(disc)
        return SpectralClass(REAL_DISTINCT, (0.5 * (tr + root), 0.5 * (tr - root)))
    if disc < -SPECTRUM_TOL * scale:
        return SpectralClass(COMPLEX_PAIR, (0.5 * tr, 0.5 * math.sqrt(-disc)))
    lam = 0.5 * tr
    off_scale = TRACE_ZERO_TOL * (1.0 + a.max_abs())
    is_scalar = (
        abs(a.a12) <= off_scale
        and abs(a.a21) <= off_scale
        and abs(a.a11 - a.a22) <= off_scale
    )
    kind = REPEATED_DIAGONALIZABLE if is_scalar else REPEATED_DEFECTIVE
    return SpectralClass(kind, (lam,))


def constraint_rhs(a: Matrix2, d: DiffusionParams) -> float:
    """Right-hand side of the scalar gyration constraint."""
    return -a.a21 * d.d11 + (a.a11 - a.a22) * d.d12 + a.a12 * d.d22


def _forced_diffusion_text(a: Matrix2, d: DiffusionParams) -> str:
    """Describe which diffusion choices satisfy the trace-zero constraint."""
    c11, c12, c22 = -a.a21, a.a11 - a.a22, a.a12
    eq = f"({c11!r})*d11 + ({c12!r})*d12 + ({c22!r})*d22 = 0"
    small = TRACE_ZERO_TOL * (1.0 + a.max_abs())
    if abs(c12) <= small and c11 * c22 > 0.0:
        # Same-sign coefficients on the nonnegative diagonal force the whole
        # diffusion to vanish (semidefiniteness then kills d12 too).
        return f"trace(A) = 0 forces {eq}, hence d11 = d22 = d12 = 0"
    return f"trace(A) = 0 forces {eq}"


def solve_gyration(a: Matrix2, d: DiffusionParams) -> QSolution:
    """Solve the gyration constraint for the given drift and diffusion.

    Unique when trace(A) is nonzero. When the trace vanishes, the constraint
    either holds for every q (family branch, default q reported) or cannot
    hold for the supplied diffusion (inconsistent branch; the residual is the
    unmatched right-hand side and the caller must re-choose the diffusion).
    """
    tr = a.trace
    rhs = constraint_rhs(a, d)
    trace_tol = TRACE_ZERO_TOL * (1.0 + a.max_abs())
    rhs_tol = TRACE_ZERO_TOL * (1.0 + a.max_abs()) * (1.0 + d.max_abs())
    if abs(tr) > trace_tol:
        return QSolution(UNIQUE, rhs / tr)
    if abs(rhs) <= rhs_tol:
        return QSolution(
            FAMILY,
            FAMILY_DEFAULT_Q,
            note=f"{_forced_diffusion_text(a, d)}; satisfied, gyration is a free parameter",
        )
    return QSolution(INCONSISTENT, None, note=_forced_diffusion_text(a, d), residual=rhs)


def assemble_decomposition(
    a: Matrix2, d: DiffusionParams, gyration: AntisymScalar | float
) -> LinearDecomposition:
    """Build friction, transverse and potential matrices from A, D and q.

    Raises SingularMatrix when D + Q is not invertible and AsymmetricU when
    the two routes to the potential matrix disagree, which happens exactly
    when q violates the gyration constraint.
    """
    q = gyration if isinstance(gyration, AntisymScalar) else AntisymScalar(float(gyration))
    m = d.matrix() + q.matrix()
    m_inv = invert2(m)
    friction, transverse = sym_antisym_split(m_inv)

    u_forward = (m_inv @ a).scaled(-1.0)
    u_adjoint = (a.transpose() @ invert2(d.matrix() - q.matrix())).scaled(-1.0)
    gap = (u_forward - u_adjoint).max_abs()
    if gap > POTENTIAL_SYMMETRY_TOL * (1.0 + u_forward.max_abs()):
        raise AsymmetricU(u_forward, u_adjoint, gap)
    u = (u_forward + u_adjoint).scaled(0.5)

    return LinearDecomposition(
        a=a,
        diffusion=d,
        gyration=q,
        friction=friction,
        transverse=transverse,
        potential_matrix=u,
        potential_asymmetry=gap,
    )


def quadratic_potential(u: Matrix2) -> ScalarField:
    """Quadratic potential phi(x) = x^T U x / 2 with analytic gradient U x.

    The 1/2 normalization makes grad(phi) = U x hold exactly for symmetric U.
    """
    off = 0.5 * (u.a12 + u.a21)

    def value(x1, x2):
        return 0.5 * (u.a11 * x1 * x1 + u.a22 * x2 * x2) + off * x1 * x2

    return ScalarField(evaluate=CoordFn(value), analytic_gradient=CoordFn(u.apply_coords, vector=True))


def lyapunov_equation_residual(
    a: Matrix2, d: DiffusionParams, gyration: AntisymScalar | float
) -> float:
    """Frobenius norm of A Q + Q A^T - (A D - D A^T) for the given q."""
    q = gyration if isinstance(gyration, AntisymScalar) else AntisymScalar(float(gyration))
    qm = q.matrix()
    dm = d.matrix()
    lhs = (a @ qm) + (qm @ a.transpose())
    rhs = (a @ dm) - (dm @ a.transpose())
    return (lhs - rhs).frobenius()


def reconstruct_drift(dec: LinearDecomposition, x: Point2) -> Point2:
    """Recover the drift at x from the dual frame: -(D + Q) U x = A x."""
    m = dec.diffusion.matrix() + dec.gyration.matrix()
    return (m @ dec.potential_matrix).scaled(-1.0).apply(x)
