"""Decomposition of planar linear systems x' = A x.

Given the drift matrix A and a positive-semidefinite diffusion matrix D, the
gyration coefficient q is the one unknown of the constraint equation

    A Q + Q A^T = A D - D A^T,        Q = q * [[0,1],[-1,0]],

which collapses to the scalar relation

    (a11 + a22) * q = -a21*d11 + (a11 - a22)*d12 + a12*d22.

Inverting D + Q and splitting into symmetric and antisymmetric parts yields
the friction matrix S and transverse coefficient t with S + T = [D+Q]^(-1).
The potential matrix U = -[D+Q]^(-1) A, from the same inverse, is symmetric
exactly when q satisfies the constraint, and phi(x) = x^T U x / 2 is the
quadratic potential with gradient U x.

One judge decides every q, solved or given: ``assemble_decomposition``
accepts q while the constraint residual R = sqrt(2) |trace(A) q - rhs| is at
most sqrt(2) * TRACE_ZERO_TOL * max|A| * (|q| + max|D|), the bound that
``solve_gyration``'s zero tests give every q it returns. Every 2x2 test is
made on power-of-two unit copies (``core.unit_copy``): the spectral tests and
the forced-diffusion note on A's, the trace and the right-hand side on A's
and D's, the residual and its bound on A's and (q, D)'s. So A and (q, D)
scaled by any powers of two get the same verdicts.

The construction always takes this general path; the Jordan normal form of A
is classification metadata, never a code branch.
"""

from __future__ import annotations

import math

from .core import (
    AntisymScalar, DiffusionParams, Matrix2, Point2, ScalarField, SystemSpec, invert2, record, scale_back,
    scaled_repr, sym_antisym_split, unit_copy,
)
from .errors import AsymmetricU
from .tolerances import SPECTRUM_TOL, TRACE_ZERO_TOL

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


@record
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


@record
class QSolution:
    """Outcome of solving the gyration constraint.

    branch "unique": q is the single solution (trace(A) != 0).
    branch "family": trace(A) = 0 and the constraint holds for every q;
        ``q`` carries the default and ``note`` the condition that was met.
    branch "inconsistent": trace(A) = 0 but the right-hand side does not
        vanish; ``residual`` carries it, ``note`` the condition and the value
        (``core.scaled_repr``'s text); the diffusion must be re-chosen.
    """

    branch: str
    q: float | None
    note: str = ""
    residual: float = 0.0


@record
class LinearDecomposition:
    """Bundle of a drift matrix with its constructed decomposition.

    friction + transverse.matrix() equals the inverse of
    diffusion + gyration.matrix(); potential_matrix is the symmetric U with
    gradient U x.  ``potential_asymmetry`` records |u12 - u21| of
    U = -(D + Q)^(-1) A before symmetrization, and ``constraint_residual``
    the gyration constraint residual that q was judged by.
    """

    a: Matrix2
    diffusion: DiffusionParams
    gyration: AntisymScalar
    friction: Matrix2
    transverse: AntisymScalar
    potential_matrix: Matrix2
    potential_asymmetry: float
    constraint_residual: float

    def potential(self) -> ScalarField:
        return quadratic_potential(self.potential_matrix)

    def system(self, name: str) -> SystemSpec:
        """The linear system x' = A x with this decomposition's potential and friction."""
        return SystemSpec.linear(name, self.a, potential=self.potential(), friction=self.friction)


def classify_spectrum(a: Matrix2) -> SpectralClass:
    """Classify A's eigenvalues into the four planar normal-form types, every test made on A's unit copy."""
    u, e = _unit_matrix(a)
    tr = u.trace
    disc = tr * tr - 4.0 * u.det
    m = u.max_abs()
    if abs(disc) <= SPECTRUM_TOL * m * m:
        off_scale = TRACE_ZERO_TOL * m
        is_scalar = abs(u.a12) <= off_scale and abs(u.a21) <= off_scale and abs(u.a11 - u.a22) <= off_scale
        return SpectralClass(REPEATED_DIAGONALIZABLE if is_scalar else REPEATED_DEFECTIVE, (scale_back(0.5 * tr, e),))
    root = math.sqrt(abs(disc))
    if disc > 0.0:
        return SpectralClass(REAL_DISTINCT, (scale_back(0.5 * (tr + root), e), scale_back(0.5 * (tr - root), e)))
    return SpectralClass(COMPLEX_PAIR, (scale_back(0.5 * tr, e), scale_back(0.5 * root, e)))


def constraint_rhs(a: Matrix2, d: DiffusionParams) -> float:
    """Right-hand side of the scalar gyration constraint."""
    return -a.a21 * d.d11 + (a.a11 - a.a22) * d.d12 + a.a12 * d.d22


def _forced_diffusion_text(a: Matrix2, d: DiffusionParams) -> str:
    """Describe which diffusion choices satisfy the trace-zero constraint."""
    # + 0.0 folds a negative zero, so the note never prints (-0.0)
    c11, c12, c22 = -a.a21 + 0.0, a.a11 - a.a22 + 0.0, a.a12 + 0.0
    eq = f"({c11!r})*d11 + ({c12!r})*d12 + ({c22!r})*d22 = 0"
    u = _unit_matrix(a)[0]
    if abs(u.a11 - u.a22) <= TRACE_ZERO_TOL * u.max_abs() and -u.a21 * u.a12 > 0.0:
        # Same-sign coefficients on the nonnegative diagonal force the whole
        # diffusion to vanish (semidefiniteness then kills d12 too).
        return f"trace(A) = 0 forces {eq}, hence d11 = d22 = d12 = 0"
    return f"trace(A) = 0 forces {eq}"


def _unit_matrix(a: Matrix2) -> tuple[Matrix2, int]:
    """A's unit copy (``core.unit_copy``) and the exponent of 2 that scales it back to A."""
    entries, e = unit_copy(a.a11, a.a12, a.a21, a.a22)
    return Matrix2(*entries), e


def solve_gyration(a: Matrix2, d: DiffusionParams) -> QSolution:
    """Solve the gyration constraint for the given drift and diffusion.

    Unique when trace(A) is nonzero. When the trace vanishes, the constraint
    either holds for every q (family branch, default q reported) or cannot
    hold for the supplied diffusion (inconsistent branch; the residual is the
    unmatched right-hand side and the caller must re-choose the diffusion).
    The trace and the right-hand side are evaluated on the unit copies of A
    and D; q and ``residual`` are scaled back (an infinity where that
    overflows), and the note prints the residual with ``core.scaled_repr``.
    """
    (u, e_a), (du, e_d) = _unit_matrix(a), unit_copy(d.d11, d.d12, d.d22)
    tr = u.trace
    rhs = constraint_rhs(u, DiffusionParams(*du))
    trace_tol = TRACE_ZERO_TOL * u.max_abs()
    rhs_tol = trace_tol * max(map(abs, du))  # the right-hand side is linear in A and in D
    if abs(tr) > trace_tol:
        return QSolution(UNIQUE, scale_back(rhs / tr, e_d))
    if abs(rhs) <= rhs_tol:
        return QSolution(
            FAMILY,
            FAMILY_DEFAULT_Q,
            note=f"{_forced_diffusion_text(a, d)}; satisfied, gyration is a free parameter",
        )
    note = f"{_forced_diffusion_text(a, d)}; unmatched right-hand side {scaled_repr(rhs, e_a + e_d)}"
    return QSolution(INCONSISTENT, None, note=note, residual=scale_back(rhs, e_a + e_d))


def assemble_decomposition(
    a: Matrix2, d: DiffusionParams, gyration: AntisymScalar | float
) -> LinearDecomposition:
    """Build friction, transverse and potential matrices from A, D and q.

    q is judged first, solved or not: AsymmetricU is raised when the
    constraint residual exceeds its bound (see the module docstring), which
    is where U would not be symmetric, and prints both with ``scaled_repr``.
    U = -(D + Q)^(-1) A then reuses the one inverse of D + Q, and is
    symmetrized. Raises SingularMatrix when D + Q is not invertible.
    """
    q = gyration if isinstance(gyration, AntisymScalar) else AntisymScalar(float(gyration))
    residual, bound, exponent = _unit_constraint(a, d, q.q)
    if residual > bound:
        shown = (scaled_repr(residual, exponent), scaled_repr(bound, exponent))
        raise AsymmetricU(scale_back(residual, exponent), scale_back(bound, exponent), shown)
    m_inv = invert2(d.matrix() + q.matrix())
    friction, transverse = sym_antisym_split(m_inv)
    u = (m_inv @ a).scaled(-1.0)

    return LinearDecomposition(
        a=a,
        diffusion=d,
        gyration=q,
        friction=friction,
        transverse=transverse,
        potential_matrix=(u + u.transpose()).scaled(0.5),
        potential_asymmetry=(u - u.transpose()).max_abs(),
        constraint_residual=scale_back(residual, exponent),
    )


def quadratic_potential(u: Matrix2) -> ScalarField:
    """Quadratic potential phi(x) = x^T U x / 2 with analytic gradient U x.

    The 1/2 normalization makes grad(phi) = U x hold exactly for symmetric U.
    """
    off = 0.5 * (u.a12 + u.a21)

    def value(x1, x2):
        return 0.5 * (u.a11 * x1 * x1 + u.a22 * x2 * x2) + off * x1 * x2

    return ScalarField(value, gradient_fn=u.apply_coords)


def lyapunov_equation_residual(
    a: Matrix2, d: DiffusionParams, gyration: AntisymScalar | float
) -> float:
    """Frobenius norm of A Q + Q A^T - (A D - D A^T) for the given q (an infinity beyond float64)."""
    q = gyration if isinstance(gyration, AntisymScalar) else AntisymScalar(float(gyration))
    residual, _, exponent = _unit_constraint(a, d, q.q)
    return scale_back(residual, exponent)


def _unit_constraint(a: Matrix2, d: DiffusionParams, q: float) -> tuple[float, float, int]:
    """The constraint residual and its bound on the unit copies of A and (q, D), and the exponent of 2 that scales both back.

    Both are bilinear in A and (q, D), so each scaled back is the same
    quantity of A, D and q: the same bits wherever the products stay normal.
    """
    u, e_a = _unit_matrix(a)
    (qu, d11, d12, d22), e_qd = unit_copy(q, d.d11, d.d12, d.d22)
    qm, dm = Matrix2(0.0, qu, -qu, 0.0), Matrix2(d11, d12, d12, d22)
    lhs = (u @ qm) + (qm @ u.transpose())
    rhs = (u @ dm) - (dm @ u.transpose())
    bound = math.sqrt(2.0) * TRACE_ZERO_TOL * u.max_abs() * (abs(qu) + dm.max_abs())
    return (lhs - rhs).frobenius(), bound, e_a + e_qd


def reconstruct_drift(dec: LinearDecomposition, x: Point2) -> Point2:
    """Recover the drift at x from the dual frame: -(D + Q) U x = A x."""
    m = dec.diffusion.matrix() + dec.gyration.matrix()
    return (m @ dec.potential_matrix).scaled(-1.0).apply(x)
