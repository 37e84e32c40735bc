"""Planar numeric substrate: 2-vectors, 2x2 matrices, field abstractions.

All types are immutable values and all operations are pure functions, so
everything here can be shared freely between concurrent workers. Non-finite
entries (NaN/Inf) are rejected at construction.

A field's formulas are written once, as plain closures over coordinates
(x1, x2) that take Python floats or float64 arrays; a closure may return a
constant. The Point2 methods (``evaluate``, ``gradient``, ``divergence``)
call them on floats, and the ``*_many`` methods call the same
closures on arrays of N points. The two agree bit for bit where a closure
uses only +, -, *, / and abs: IEEE 754 rounds each of these correctly, on
float64 arrays as on Python floats, and the array evaluates the same
expression in the same order. Powers and library functions are not
covered: Python's float ``**`` calls the C library's pow, while numpy's
array power has paths of its own, and the two can differ in the last bit
(``x**3``: 6 of 200 uniform draws on [-3, 3]). The known case is the stage
of ``catalog.HOPF_POLAR``, ``x1 - x1**3``, which no output evaluates on
arrays. A ``*_many`` result
that is NaN or infinite anywhere raises NotFiniteQuantity, a ValueError.
A vector field may instead be given as a stage, source lines that set (f1, f2)
from (x1, x2): ``VectorField.from_stage`` compiles its closure from that text
and marks it ``fn.stage``, the text the RK4 stepper inlines; the mark of
``SystemSpec.linear`` has no multiply by 0 or +-1 (``_folded_linear_stage``).

The value types of the package are frozen records: a class whose annotations
list its fields, decorated with ``record``. It gives the class what
``@dataclass(frozen=True)`` would: ``__init__`` taking the fields by position
or keyword in annotation order, with the class attributes as defaults and
``__post_init__`` called after them; the repr ``Point2(x1=1.0, x2=2.0)``;
``__eq__`` and ``__hash__`` over the tuple of field values, equal only
within one class; and assignment or deletion raising ``FrozenRecordError``,
an AttributeError. ``dataclasses`` is not used because on Python 3.10-3.12
it writes each class's methods as source text and ``exec``s them at every
start, which cost a one-shot run about 10 ms of import for the package's 17
records (Python 3.11 on a 2-vCPU KVM guest). ``record`` attaches closures
over the field names instead, whose code is compiled once with this module,
so a class takes microseconds. Their price is a slower ``__init__``, 0.2-0.3
us more a construction there, which no batch path pays per point.
"""

from __future__ import annotations

import builtins
import math
import textwrap
from typing import Callable

import numpy as np

from .errors import NotFiniteQuantity, SingularMatrix
from .tolerances import FD_STEP, PSD_SLACK, SINGULAR_DET_TOL


def _require_finite(type_name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{type_name} entries must be finite, got {v!r}")


def unit_copy(*values: float) -> tuple[list[float], int]:
    """``values`` times the power of two 2**-e that brings their largest magnitude into [0.5, 1), and e.

    The copy is exact wherever its values stay normal floats, so a product of
    the copy, scaled back with ``scale_back``, has the bits of that product of
    ``values`` wherever both stay normal. Zeros come back as they are, with e = 0.
    """
    e = math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, -e) for v in values], e


def scale_back(x: float, e: int) -> float:
    """x * 2**e rounded once, and an infinity of x's sign where that overflows float64."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def scaled_repr(x: float, e: int) -> str:
    """repr of x * 2**e, or ``x * 2**e`` spelled out where that float would lose bits of x (underflow or overflow)."""
    back = scale_back(x, e)
    return repr(back) if math.ldexp(back, -e) == x else f"{x!r} * 2**{e}"


def semidefinite_det(a11: float, a12: float, a21: float, a22: float) -> tuple[float, bool]:
    """A unit copy's determinant, and whether it is at least -PSD_SLACK * max|entry|^2 (a rank-1 matrix's round-off)."""
    det = a11 * a22 - a12 * a21
    scale = max(abs(a11), abs(a12), abs(a21), abs(a22))
    return det, det >= -PSD_SLACK * scale * scale


class FrozenRecordError(AttributeError):
    """A field of a record was assigned or deleted."""


def _bind(cls: type, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> tuple:
    """The values of ``names`` from ``cls(*args, **kwargs)``, defaults filled in, or TypeError."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} positional arguments but {len(args)} were given")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
    for name in kwargs:
        problem = "got multiple values for argument" if name in names else "got an unexpected keyword argument"
        raise TypeError(f"{cls.__qualname__}() {problem} {name!r}")
    return tuple(values)


def record(cls: type) -> type:
    """Make ``cls`` a frozen record of the fields its annotations list (see the module docstring)."""
    names = tuple(cls.__annotations__)
    own = vars(cls)
    defaults = {name: own[name] for name in names if name in own}
    arity = len(names)
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = _bind(cls, names, defaults, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()  # looked up at every call, so a patched class method runs

    def values(self) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


@record
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

    def scaled(self, c: float) -> Point2:
        return Point2(c * self.x1, c * self.x2)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x1, self.x2)


@record
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


@record
class AntisymScalar:
    """Scalar coefficient q encoding the antisymmetric matrix q * [[0,1],[-1,0]].

    Antisymmetry of the encoded matrix holds by construction.
    """

    q: float

    def __post_init__(self):
        _require_finite("AntisymScalar", self.q)

    def matrix(self) -> Matrix2:
        return Matrix2(0.0, self.q, -self.q, 0.0)


@record
class DiffusionParams:
    """Symmetric positive-semidefinite diffusion matrix [[d11,d12],[d12,d22]].

    Construction rejects any triple violating d11 >= 0, d22 >= 0 or
    d11*d22 - d12^2 >= -PSD_SLACK * max|entry|^2 on its unit copy
    (``semidefinite_det``); a violation is an invalid value, not a warning.
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
        (d11, d12, d22), e = unit_copy(self.d11, self.d12, self.d22)  # the determinant's products stay normal
        det, semidefinite = semidefinite_det(d11, d12, d12, d22)
        if not semidefinite:
            raise ValueError(
                f"diffusion must be positive semidefinite: d11*d22 - d12^2 = {scaled_repr(det, 2 * e)} < 0"
            )

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
    """Invert a 2x2 matrix by adjugate/determinant, on its unit copy (``unit_copy``).

    Raises SingularMatrix when |det| <= SINGULAR_DET_TOL * max|entry|^2, a
    test relative to the matrix. The copy's det and 1 / det stay normal, so
    M and ``c * M`` are singular together, and M's inverse is the copy's
    scaled back by the same power of two: the bits of the plain adjugate
    formula wherever its products, det and 1 / det stay normal. An entry of
    the inverse beyond float64 raises ValueError.
    """
    (a11, a12, a21, a22), e = unit_copy(m.a11, m.a12, m.a21, m.a22)
    det = a11 * a22 - a12 * a21
    scale = max(abs(a11), abs(a12), abs(a21), abs(a22))
    if abs(det) <= SINGULAR_DET_TOL * scale * scale:
        raise SingularMatrix(scale_back(det, 2 * e), scaled_repr(det, 2 * e))
    inv = 1.0 / det
    return Matrix2(*(scale_back(v, -e) for v in (a22 * inv, -a12 * inv, -a21 * inv, a11 * inv)))


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


def _column(value, shape: tuple) -> np.ndarray:
    """A float64 column of ``shape``: an array result as is, a constant broadcast (keeping the sign of a -0.0)."""
    if isinstance(value, np.ndarray) and value.dtype == np.float64 and value.shape == shape:
        return value
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


def _many(fn: Callable, x1: np.ndarray, x2: np.ndarray, pair: bool = False):
    """A coordinate closure on arrays, as float64 columns shaped like x1.

    A column may be the closure's own array or a read-only broadcast, so no
    caller writes into one.
    """
    with np.errstate(all="ignore"):  # overflow yields inf/nan silently, like Python floats
        value = fn(x1, x2)
    shape = np.shape(x1)
    if pair:
        return tuple(_column(v, shape) for v in value)
    return _column(value, shape)


def define(source: str, name: str, namespace: dict | None = None) -> Callable:
    """The function ``name`` defined by ``source``, compiled in ``namespace`` (empty by default)."""
    namespace = {} if namespace is None else namespace
    exec(compile(source, f"<aodecomp {name}>", "exec"), namespace)
    return namespace[name]


@record
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


@record
class VectorField:
    """Planar vector field with optional analytic divergence.

    ``fn(x1, x2)`` returns (f1, f2), and ``divergence_fn(x1, x2)`` the divergence.
    """

    fn: Callable
    divergence_fn: Callable | None = None

    @property
    def stage(self) -> str | None:
        """The text ``fn`` is marked with, which the RK4 stepper inlines, or None for a plain closure."""
        return getattr(self.fn, "stage", None)

    @classmethod
    def from_stage(cls, stage: str, divergence_fn: Callable | None = None) -> VectorField:
        """The field whose ``fn`` runs ``stage``: Python lines that set f1, f2 from x1, x2.

        A stage reads only x1, x2, literals, builtins and its own temporaries,
        whose names start with ``_``, so it means the same inside the stepper.
        """
        fn = define("def fn(x1, x2):\n" + textwrap.indent(stage, "    ") + "\n    return f1, f2\n", "fn")
        code = fn.__code__
        temporaries = set(code.co_varnames) - {"x1", "x2", "f1", "f2"}
        if any(not t.startswith("_") for t in temporaries) or not set(code.co_names) <= set(vars(builtins)):
            raise ValueError(f"a stage may bind only f1, f2 and _-prefixed names and read no globals, got {stage!r}")
        fn.stage = stage
        return cls(fn, divergence_fn)

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


@record
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
        # fn runs A x with each coefficient's repr, exact for -0.0 too, so it rounds like Matrix2.apply_coords;
        # its mark, the text the stepper inlines, is the folded copy
        stage = "f1, f2 = ({!r}) * x1 + ({!r}) * x2, ({!r}) * x1 + ({!r}) * x2".format(a.a11, a.a12, a.a21, a.a22)
        field = VectorField.from_stage(stage, divergence_fn=lambda _x1, _x2: trace)
        field.fn.stage = _folded_linear_stage(a)
        return cls(name=name, field=field, potential=potential, friction=friction)


def _folded_linear_stage(a: Matrix2) -> str:
    """The stage of x' = A x with no multiply by 0 or +-1, which the RK4 stepper inlines.

    A +-0.0 term is dropped, and ``(1.0) * x`` and ``(-1.0) * x`` are written
    ``x`` and ``-x`` (``- x`` after a term); an output with no term is ``0.0``.
    Both folds are exact in IEEE 754, and a dropped term changes a sum only in
    a zero's sign, or where its coordinate is infinite at a midpoint: then the
    step leaves the box either way if an output reads it, and if none does,
    the full stage's ``0.0 * inf`` ends the run while this one ends it too
    unless the coordinate's slopes cancel exactly, as with dt = 2**1022 in
    ``test_stage_fold`` (no catalog system can).
    """
    rows = []
    for row in ((a.a11, a.a12), (a.a21, a.a22)):
        # each kept term as "+ x", "- x" or "+ (c) * x"; a leading "+ " is dropped and a leading "- " is "-"
        terms = [(c, x) for c, x in zip(row, ("x1", "x2")) if c != 0.0]
        text = " ".join({1.0: f"+ {x}", -1.0: f"- {x}"}.get(c, f"+ ({c!r}) * {x}") for c, x in terms) or "+ 0.0"
        rows.append(text[2:] if text[0] == "+" else "-" + text[2:])
    return "f1, f2 = {}, {}".format(*rows)
