"""Planar numeric substrate: 2-vectors, 2x2 matrices, field abstractions.

All types are immutable values and all operations are pure functions, so
everything here can be shared freely between concurrent workers. Non-finite
entries (NaN/Inf) are rejected at construction.

A field's formulas are written once, as plain closures over coordinates
(x1, x2) that take Python floats or float64 arrays; a closure may return a
constant. The Point2 methods (``evaluate``, ``gradient``, ``divergence``)
call them on floats, and the ``*_many`` methods call the same
closures on arrays of N points. The two agree bit for bit, because numpy
rounds each elementwise operation like Python floats do. A ``*_many`` result
that is NaN or infinite anywhere raises NotFiniteQuantity, a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotFiniteQuantity, SingularMatrix
from .tolerances import FD_STEP, PSD_SLACK, SINGULAR_DET_TOL


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
        return math.sqrt(self.a11 * self.a11 + self.a12 * self.a12 + self.a21 * self.a21 + self.a22 * self.a22)

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
    d11*d22 - d12^2 >= -PSD_SLACK * (1 + max|entry|)^2, the slack that
    absorbs the round-off of an exactly rank-1 matrix; a violation is an
    invalid value, not a warning.
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
        scale = 1.0 + self.max_abs()
        if self.det < -PSD_SLACK * scale * scale:
            raise ValueError(f"diffusion must be positive semidefinite: d11*d22 - d12^2 = {self.det!r} < 0")

    @classmethod
    def identity(cls) -> DiffusionParams:
        return cls(1.0, 0.0, 1.0)

    @classmethod
    def zero(cls) -> DiffusionParams:
        return cls(0.0, 0.0, 0.0)

    @property
    def det(self) -> float:
        return self.d11 * self.d22 - self.d12 * self.d12

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
    if abs(det) <= SINGULAR_DET_TOL * (1.0 + m.max_abs() * m.max_abs()):
        raise SingularMatrix(det)
    inv = 1.0 / det
    return Matrix2(m.a22 * inv, -m.a12 * inv, -m.a21 * inv, m.a11 * inv)


def central_gradient(f: Callable, x1, x2):
    """Central finite-difference gradient (d1 f, d2 f) of f(x1, x2), step FD_STEP * (1 + |x_i|)."""
    h1 = FD_STEP * (1.0 + abs(x1))
    h2 = FD_STEP * (1.0 + abs(x2))
    g1 = (f(x1 + h1, x2) - f(x1 - h1, x2)) / (2.0 * h1)
    g2 = (f(x1, x2 + h2) - f(x1, x2 - h2)) / (2.0 * h2)
    return g1, g2


def central_divergence(f: Callable, x1, x2):
    """Central finite-difference divergence of a planar field f(x1, x2) -> (f1, f2)."""
    h1 = FD_STEP * (1.0 + abs(x1))
    h2 = FD_STEP * (1.0 + abs(x2))
    d1 = (f(x1 + h1, x2)[0] - f(x1 - h1, x2)[0]) / (2.0 * h1)
    d2 = (f(x1, x2 + h2)[1] - f(x1, x2 - h2)[1]) / (2.0 * h2)
    return d1 + d2


def check_finite(quantity: str, *columns: np.ndarray) -> None:
    """Raise NotFiniteQuantity naming ``quantity``, its first non-finite row and a non-finite value there."""
    finite = np.isfinite(columns[0])
    for column in columns[1:]:
        finite &= np.isfinite(column)
    if not finite.all():
        i = int(finite.argmin())
        value = next(v for v in (float(c[i]) for c in columns) if not math.isfinite(v))
        raise NotFiniteQuantity(quantity, value, i)


def _many(fn: Callable, x1: np.ndarray, x2: np.ndarray, pair: bool = False):
    """A coordinate closure on arrays, as float64 columns shaped like x1.

    A constant return is broadcast, which keeps the sign of a -0.0.
    """
    with np.errstate(all="ignore"):  # overflow yields inf/nan silently, like Python floats
        value = fn(x1, x2)
    if pair:
        return tuple(np.broadcast_to(np.asarray(v, dtype=float), np.shape(x1)) for v in value)
    return np.broadcast_to(np.asarray(value, dtype=float), np.shape(x1))


@dataclass(frozen=True)
class ScalarField:
    """Scalar function of the plane with analytic or finite-difference gradient.

    ``fn(x1, x2)`` returns the value and ``gradient_fn(x1, x2)`` the pair
    (d1 phi, d2 phi).
    """

    fn: Callable
    gradient_fn: Callable | None = None

    def _gradient(self, x1, x2):
        if self.gradient_fn is not None:
            return self.gradient_fn(x1, x2)
        return central_gradient(self.fn, x1, x2)

    def evaluate(self, x: Point2) -> float:
        return float(self.fn(x.x1, x.x2))

    def gradient(self, x: Point2) -> Point2:
        return Point2(*self._gradient(x.x1, x.x2))

    def evaluate_many(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Values at N points; raises NotFiniteQuantity (a ValueError) where not finite."""
        value = _many(self.fn, x1, x2)
        check_finite("potential", value)
        return value

    def gradient_many(self, x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient components at N points; raises NotFiniteQuantity where not finite."""
        g1, g2 = _many(self._gradient, x1, x2, pair=True)
        check_finite("potential gradient", g1, g2)
        return g1, g2


@dataclass(frozen=True)
class VectorField:
    """Planar vector field with optional analytic divergence.

    ``fn(x1, x2)`` returns the pair (f1, f2) and ``divergence_fn(x1, x2)`` the
    divergence.
    """

    fn: Callable
    divergence_fn: Callable | None = None

    def _divergence(self, x1, x2):
        if self.divergence_fn is not None:
            return self.divergence_fn(x1, x2)
        return central_divergence(self.fn, x1, x2)

    def evaluate(self, x: Point2) -> Point2:
        return Point2(*self.fn(x.x1, x.x2))

    def divergence(self, x: Point2) -> float:
        return float(self._divergence(x.x1, x.x2))

    def evaluate_many(self, x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Field components at N points; raises NotFiniteQuantity where not finite."""
        f1, f2 = _many(self.fn, x1, x2, pair=True)
        check_finite("vector field", f1, f2)
        return f1, f2

    def divergence_many(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Divergence at N points (finite differences where no closed form);
        raises NotFiniteQuantity where not finite."""
        value = _many(self._divergence, x1, x2)
        check_finite("divergence", value)
        return value


@dataclass(frozen=True)
class SystemSpec:
    """A named planar system: its field, and optionally a potential and friction matrix.

    ``friction`` is the symmetric matrix S of the system's decomposition
    (S + T) f = -grad(phi), set for linear systems built from a constructed
    decomposition. A system with it computes the dissipation power from S,
    one without it from the pointwise friction scalar. Systems without a
    potential support only divergence and trajectory operations;
    decomposition operations reject them.
    """

    name: str
    field: VectorField
    potential: ScalarField | None = None
    friction: Matrix2 | None = None

    @classmethod
    def linear(
        cls, name: str, a: Matrix2, potential: ScalarField | None = None, friction: Matrix2 | None = None
    ) -> SystemSpec:
        """The linear system x' = A x, with its divergence in closed form."""
        trace = a.trace
        a11, a12, a21, a22 = a.a11, a.a12, a.a21, a.a22

        def apply(x1, x2):  # A x; closure locals, as the RK4 stepper calls this 4 times a step
            return a11 * x1 + a12 * x2, a21 * x1 + a22 * x2

        field = VectorField(apply, divergence_fn=lambda _x1, _x2: trace)
        return cls(name=name, field=field, potential=potential, friction=friction)
