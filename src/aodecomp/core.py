"""Planar numeric substrate: 2-vectors, 2x2 matrices, field abstractions.

All types are immutable values and all operations are pure functions, so
everything here can be shared freely between concurrent workers. Non-finite
entries (NaN/Inf) are rejected at construction.

A field's formulas are written once, as ``CoordFn`` closures over
coordinates (x1, x2) that take Python floats or float64 arrays and are also
callable on a Point2. The ``*_many`` methods evaluate N points at once and
equal the loop over the points bit for bit, because the closures keep the
scalar expression order. Fields given only as Point2 closures are lifted one
row at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SingularMatrix
from .tolerances import FD_STEP, SINGULAR_DET_TOL


def _require_finite(type_name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{type_name} entries must be finite, got {v!r}")


@dataclass(frozen=True)
class Point2:
    """A point (or vector) in the plane."""

    x1: float
    x2: float

    def __post_init__(self):
        _require_finite("Point2", self.x1, self.x2)

    def norm(self) -> float:
        return math.hypot(self.x1, self.x2)

    def dot(self, other: Point2) -> float:
        return self.x1 * other.x1 + self.x2 * other.x2

    def __add__(self, other: Point2) -> Point2:
        return Point2(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: Point2) -> Point2:
        return Point2(self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self) -> Point2:
        return Point2(-self.x1, -self.x2)

    def scaled(self, c: float) -> Point2:
        return Point2(c * self.x1, c * self.x2)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x1, self.x2)


@dataclass(frozen=True)
class Matrix2:
    """Dense real 2x2 matrix, row-major fields a11, a12, a21, a22."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self):
        _require_finite("Matrix2", self.a11, self.a12, self.a21, self.a22)

    @classmethod
    def identity(cls) -> Matrix2:
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def zero(cls) -> Matrix2:
        return cls(0.0, 0.0, 0.0, 0.0)

    @classmethod
    def diagonal(cls, d1: float, d2: float) -> Matrix2:
        return cls(d1, 0.0, 0.0, d2)

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    def transpose(self) -> Matrix2:
        return Matrix2(self.a11, self.a21, self.a12, self.a22)

    def max_abs(self) -> float:
        return max(abs(self.a11), abs(self.a12), abs(self.a21), abs(self.a22))

    def frobenius(self) -> float:
        return math.sqrt(self.a11**2 + self.a12**2 + self.a21**2 + self.a22**2)

    def apply(self, p: Point2) -> Point2:
        return Point2(*self.apply_coords(p.x1, p.x2))

    def apply_coords(self, x1, x2):
        """A x on coordinates (floats or float64 arrays)."""
        return self.a11 * x1 + self.a12 * x2, self.a21 * x1 + self.a22 * x2

    def __add__(self, other: Matrix2) -> Matrix2:
        return Matrix2(
            self.a11 + other.a11, self.a12 + other.a12,
            self.a21 + other.a21, self.a22 + other.a22,
        )

    def __sub__(self, other: Matrix2) -> Matrix2:
        return Matrix2(
            self.a11 - other.a11, self.a12 - other.a12,
            self.a21 - other.a21, self.a22 - other.a22,
        )

    def __matmul__(self, other: Matrix2) -> Matrix2:
        return Matrix2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def scaled(self, c: float) -> Matrix2:
        return Matrix2(c * self.a11, c * self.a12, c * self.a21, c * self.a22)

    def rows(self) -> list[list[float]]:
        return [[self.a11, self.a12], [self.a21, self.a22]]


@dataclass(frozen=True)
class AntisymScalar:
    """Scalar coefficient q encoding the antisymmetric matrix q * [[0,1],[-1,0]].

    Antisymmetry of the encoded matrix holds by construction.
    """

    q: float

    def __post_init__(self):
        _require_finite("AntisymScalar", self.q)

    def matrix(self) -> Matrix2:
        return Matrix2(0.0, self.q, -self.q, 0.0)


@dataclass(frozen=True)
class DiffusionParams:
    """Symmetric positive-semidefinite diffusion matrix [[d11,d12],[d12,d22]].

    Construction rejects any triple violating d11 >= 0, d22 >= 0 or
    d11*d22 - d12^2 >= 0; a violation is an invalid value, not a warning.
    """

    d11: float
    d12: float
    d22: float

    def __post_init__(self):
        _require_finite("DiffusionParams", self.d11, self.d12, self.d22)
        if self.d11 < 0.0 or self.d22 < 0.0:
            raise ValueError(
                f"diffusion diagonal must be nonnegative, got d11={self.d11!r}, d22={self.d22!r}"
            )
        if self.d11 * self.d22 - self.d12**2 < 0.0:
            raise ValueError(
                f"diffusion must be positive semidefinite: d11*d22 - d12^2 = "
                f"{self.d11 * self.d22 - self.d12**2!r} < 0"
            )

    @classmethod
    def identity(cls) -> DiffusionParams:
        return cls(1.0, 0.0, 1.0)

    @classmethod
    def zero(cls) -> DiffusionParams:
        return cls(0.0, 0.0, 0.0)

    @property
    def det(self) -> float:
        return self.d11 * self.d22 - self.d12**2

    def max_abs(self) -> float:
        return max(abs(self.d11), abs(self.d12), abs(self.d22))

    def matrix(self) -> Matrix2:
        return Matrix2(self.d11, self.d12, self.d12, self.d22)


def sym_antisym_split(m: Matrix2) -> tuple[Matrix2, AntisymScalar]:
    """Split M into its symmetric part and the antisymmetric coefficient.

    Returns (sym, anti) with sym = (M + M^T)/2 and anti.q = (m12 - m21)/2,
    so that sym + anti.matrix() reassembles M exactly up to round-off.
    """
    off = 0.5 * (m.a12 + m.a21)
    sym = Matrix2(m.a11, off, off, m.a22)
    anti = AntisymScalar(0.5 * (m.a12 - m.a21))
    return sym, anti


def invert2(m: Matrix2) -> Matrix2:
    """Invert a 2x2 matrix by adjugate/determinant.

    Raises SingularMatrix when |det| <= SINGULAR_DET_TOL * (1 + max|entry|^2);
    the relative scaling keeps the vanishing locus of friction+transverse
    splits (the isopotential circle) detected robustly.
    """
    det = m.det
    if abs(det) <= SINGULAR_DET_TOL * (1.0 + m.max_abs() ** 2):
        raise SingularMatrix(det)
    inv = 1.0 / det
    return Matrix2(m.a22 * inv, -m.a12 * inv, -m.a21 * inv, m.a11 * inv)


def central_gradient(f: Callable[[Point2], float], x: Point2) -> Point2:
    """Central finite-difference gradient with step FD_STEP * (1 + |x_i|)."""
    h1 = FD_STEP * (1.0 + abs(x.x1))
    h2 = FD_STEP * (1.0 + abs(x.x2))
    g1 = (f(Point2(x.x1 + h1, x.x2)) - f(Point2(x.x1 - h1, x.x2))) / (2.0 * h1)
    g2 = (f(Point2(x.x1, x.x2 + h2)) - f(Point2(x.x1, x.x2 - h2))) / (2.0 * h2)
    return Point2(g1, g2)


def central_divergence(f: Callable[[Point2], Point2], x: Point2) -> float:
    """Central finite-difference divergence of a planar vector field."""
    h1 = FD_STEP * (1.0 + abs(x.x1))
    h2 = FD_STEP * (1.0 + abs(x.x2))
    d1 = (f(Point2(x.x1 + h1, x.x2)).x1 - f(Point2(x.x1 - h1, x.x2)).x1) / (2.0 * h1)
    d2 = (f(Point2(x.x1, x.x2 + h2)).x2 - f(Point2(x.x1, x.x2 - h2)).x2) / (2.0 * h2)
    return d1 + d2


def central_jacobian(f: Callable[[Point2], Point2], x: Point2) -> Matrix2:
    """Central finite-difference Jacobian of a planar vector field."""
    h1 = FD_STEP * (1.0 + abs(x.x1))
    h2 = FD_STEP * (1.0 + abs(x.x2))
    fp1 = f(Point2(x.x1 + h1, x.x2))
    fm1 = f(Point2(x.x1 - h1, x.x2))
    fp2 = f(Point2(x.x1, x.x2 + h2))
    fm2 = f(Point2(x.x1, x.x2 - h2))
    return Matrix2(
        (fp1.x1 - fm1.x1) / (2.0 * h1), (fp2.x1 - fm2.x1) / (2.0 * h2),
        (fp1.x2 - fm1.x2) / (2.0 * h1), (fp2.x2 - fm2.x2) / (2.0 * h2),
    )


def check_finite(x1: np.ndarray, x2: np.ndarray) -> None:
    """Raise the ValueError a Point2 of the first non-finite row would raise."""
    bad = ~(np.isfinite(x1) & np.isfinite(x2))
    if bad.any():
        i = int(bad.argmax())
        Point2(float(x1[i]), float(x2[i]))


@dataclass(frozen=True)
class CoordFn:
    """A formula over coordinates (x1, x2) that takes floats or float64 arrays.

    Called with a Point2 it returns a float, or a Point2 when ``vector`` is
    set, so it serves as the Point2 closure of a field.
    """

    fn: Callable
    vector: bool = False

    def __call__(self, p: Point2):
        value = self.fn(p.x1, p.x2)
        return Point2(*value) if self.vector else float(value)


def _many(fn: Callable | None, fallback: Callable, x1: np.ndarray, x2: np.ndarray, pair: bool):
    """Evaluate a CoordFn on arrays, or lift the Point2 closure ``fallback`` row by row."""
    if isinstance(fn, CoordFn):
        with np.errstate(all="ignore"):  # overflow yields inf/nan silently, like Python floats
            return fn.fn(x1, x2)
    rows = [fallback(Point2(a, b)) for a, b in zip(x1.tolist(), x2.tolist())]
    if pair:
        return np.array([v.x1 for v in rows], dtype=float), np.array([v.x2 for v in rows], dtype=float)
    return np.array(rows, dtype=float)


@dataclass(frozen=True)
class ScalarField:
    """Scalar function of the plane with analytic or finite-difference gradient."""

    evaluate: Callable[[Point2], float]
    analytic_gradient: Callable[[Point2], Point2] | None = None

    @property
    def has_analytic_gradient(self) -> bool:
        return self.analytic_gradient is not None

    def gradient(self, x: Point2) -> Point2:
        if self.analytic_gradient is not None:
            return self.analytic_gradient(x)
        return central_gradient(self.evaluate, x)

    def evaluate_many(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Values at N points; like ``evaluate``, non-finite values pass unchecked."""
        return _many(self.evaluate, self.evaluate, x1, x2, pair=False)

    def gradient_many(self, x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient components at N points; raises ValueError where not finite."""
        g1, g2 = _many(self.analytic_gradient, self.gradient, x1, x2, pair=True)
        check_finite(g1, g2)
        return g1, g2


@dataclass(frozen=True)
class VectorField:
    """Planar vector field with optional analytic divergence and Jacobian."""

    evaluate: Callable[[Point2], Point2]
    analytic_divergence: Callable[[Point2], float] | None = None
    analytic_jacobian: Callable[[Point2], Matrix2] | None = None

    def divergence(self, x: Point2) -> float:
        if self.analytic_divergence is not None:
            return self.analytic_divergence(x)
        return central_divergence(self.evaluate, x)

    def jacobian(self, x: Point2) -> Matrix2:
        if self.analytic_jacobian is not None:
            return self.analytic_jacobian(x)
        return central_jacobian(self.evaluate, x)

    def evaluate_many(self, x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Field components at N points; raises ValueError where not finite."""
        f1, f2 = _many(self.evaluate, self.evaluate, x1, x2, pair=True)
        check_finite(f1, f2)
        return f1, f2

    def divergence_many(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Divergence at N points (finite differences where no closed form)."""
        return _many(self.analytic_divergence, self.divergence, x1, x2, pair=False)


@dataclass(frozen=True)
class SystemSpec:
    """A named planar system: its field, and optionally a potential and drift matrix.

    ``matrix`` is set for linear systems x' = A x and None otherwise. Systems
    without a potential support only divergence and trajectory operations;
    decomposition operations reject them.
    """

    name: str
    field: VectorField
    potential: ScalarField | None = None
    matrix: Matrix2 | None = None

    @classmethod
    def linear(cls, name: str, a: Matrix2, potential: ScalarField | None = None) -> SystemSpec:
        trace = a.trace
        field = VectorField(
            evaluate=CoordFn(a.apply_coords, vector=True),
            # np.full keeps the sign of a -0.0 trace, which trace + 0 * x1 would lose
            analytic_divergence=CoordFn(lambda x1, _x2: np.full(np.shape(x1), trace)),
            analytic_jacobian=lambda _x: a,
        )
        return cls(name=name, field=field, potential=potential, matrix=a)

    @classmethod
    def analytic(cls, name: str, field: VectorField, potential: ScalarField | None = None) -> SystemSpec:
        return cls(name=name, field=field, potential=potential, matrix=None)

    @property
    def is_linear(self) -> bool:
        return self.matrix is not None
