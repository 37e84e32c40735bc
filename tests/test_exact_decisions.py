"""Every decision of the linear construction is the decision of its exact value, checked on derandomized draws.

Each decision compares two quantities of one or two 2x2 matrices. Their
exact values, in ``fractions.Fraction``, come from closed forms. Each
tolerance is the exact value of the float the README documents. The test
pins those values rather than importing ``aodecomp.tolerances``, so a
changed constant moves the program's decisions off the exact ones:

- ``classify_spectrum``: repeated iff |(a11 - a22)^2 + 4 a12 a21| <=
  SPECTRUM_TOL max|A|^2, else real distinct or a complex pair by the sign.
  A repeated A is scalar iff |a12|, |a21| and |a11 - a22| are all at most
  TRACE_ZERO_TOL max|A|.
- ``solve_gyration``: unique iff |a11 + a22| > TRACE_ZERO_TOL max|A|.
  Otherwise family iff |c| <= TRACE_ZERO_TOL max|A| max|D|, with
  c = -a21 d11 + (a11 - a22) d12 + a12 d22, else inconsistent. Off the
  unique branch, the note forces D = 0 iff |a11 - a22| <= TRACE_ZERO_TOL
  max|A| and -a21 a12 > 0.
- ``invert2``: singular iff |det M| <= SINGULAR_DET_TOL max|M|^2.
- ``DiffusionParams`` (d11, d22 >= 0): refused iff d11 d22 - d12^2 <
  -PSD_SLACK max|D|^2.
- a friction matrix S (``power_many``): refused iff |s12 - s21| >
  PSD_SLACK max|S|, s11 + s22 < -PSD_SLACK max|S| or det S < -PSD_SLACK
  max|S|^2.
- ``assemble_decomposition``'s judge of q: refused iff R^2 > bound^2. Here
  R^2 = 2 (trace(A) q - c)^2 is the squared Frobenius norm of
  A Q + Q A^T - (A D - D A^T), and bound^2 = 2 TRACE_ZERO_TOL^2 max|A|^2
  (|q| + max|D|)^2. Comparing squares keeps sqrt(2) and R rational.

Both sides of every test have the same degree in each matrix (and in (q, D)
together), so a matrix scaled by a power of two has its unit copy's exact
decision. The program makes each test on the unit copy (``core.unit_copy``).
The test asserts that the copy is exact, which holds because the draws keep
every entry a normal float. It then computes the exact values on the copy,
so the verdict at every scale is checked against one exact verdict.

The rounding band. The program evaluates each side of a test in floats.
The test evaluates the same expressions on ``Tracked`` values. Each one is
a float with a bound e on its distance from the exact value of its
expression (running error analysis):

- x + y: e = e_x + e_y + |fl(x + y) - (x + y)|;
- x * y: e = |x| e_y + |y| e_x + e_x e_y + |fl(x y) - x y|;
- -x and |x| keep e.

Each rounding term is computed exactly in Fraction. Traces, determinants
and matrix products run through ``Matrix2``'s own methods on ``Tracked``
entries, as does ``constraint_rhs``. The lines that combine them into a
test are mirrored in the program's order. A test
x <= y (or <, >) of floats has the outcome of its exact values wherever
|x - y| > e_x + e_y. It has it also where e_x + e_y = 0: then every
operation was exact, as on the draws built from powers of two, so each
inclusive test is checked at its threshold too. Inside the band either
outcome may come out, and the draw is not judged.

The judge of q rounds once more, in R = fl(sqrt(S)). Its band on R^2 is
|fl(sqrt(S))^2 - S|, computed exactly, plus e_S. The band on bound^2 is
e_b (2 |bound| + e_b), with sqrt(2) carried as fl(sqrt(2)), error one ulp.

The draws. A unit entry is a sign times [0.5, 1) times 2^-i, with i <= 30.
Three draws in four put one exact quantity within 64 ulps of its
threshold. They fix the largest entry and solve for one entry that enters
the quantity without cancellation:
- an off-diagonal entry against a zero diagonal;
- a trace or an a11 - a22 from diagonal entries beside a larger
  off-diagonal;
- a triangular determinant;
- a zero d11 or a zero a21.
So the band is a few ulps, and most of these draws are judged. The rest are
arbitrary matrices of the same shape. Each matrix is then scaled by 2^j,
with j in [-1000, 1000]; A and (q, D) get their own j. A j that would make
an entry subnormal moves up to the lowest exact one.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from aodecomp import AsymmetricU, DiffusionParams, Matrix2, NotPSD, SingularMatrix, assemble_decomposition, invert2
from aodecomp.core import unit_copy
from aodecomp.linear import (
    COMPLEX_PAIR, FAMILY, INCONSISTENT, REAL_DISTINCT, REPEATED_DEFECTIVE, REPEATED_DIAGONALIZABLE, UNIQUE,
    classify_spectrum, constraint_rhs, solve_gyration,
)

from helpers import friction_power

EXAMPLES = settings(max_examples=80, deadline=None, derandomize=True, database=None)
FORCED = "hence d11 = d22 = d12 = 0"
SPECTRUM_TOL = TRACE_ZERO_TOL = 1e-10
SINGULAR_DET_TOL = PSD_SLACK = 1e-12


class Tracked:
    """A float computed by a straight-line program, and a bound on its distance from the program's exact value."""

    __slots__ = ("value", "error")

    def __init__(self, value: float, error: Fraction = Fraction(0)):
        self.value, self.error = value, error

    @classmethod
    def of(cls, x) -> Tracked:
        return x if isinstance(x, Tracked) else cls(x)

    @classmethod
    def rounded(cls, value: float, exact: Fraction, error: Fraction) -> Tracked:
        """``value``, the float of an operation whose exact result on its float operands is ``exact``."""
        return cls(value, error + abs(Fraction(value) - exact))

    def __add__(self, other) -> Tracked:
        other = Tracked.of(other)
        exact = Fraction(self.value) + Fraction(other.value)
        return Tracked.rounded(self.value + other.value, exact, self.error + other.error)

    def __radd__(self, other) -> Tracked:
        return Tracked.of(other) + self

    def __sub__(self, other) -> Tracked:
        return self + -Tracked.of(other)

    def __rsub__(self, other) -> Tracked:
        return Tracked.of(other) + -self

    def __mul__(self, other) -> Tracked:
        other = Tracked.of(other)
        x, y = Fraction(self.value), Fraction(other.value)
        error = abs(x) * other.error + abs(y) * self.error + self.error * other.error
        return Tracked.rounded(self.value * other.value, x * y, error)

    __rmul__ = __mul__

    def __neg__(self) -> Tracked:
        return Tracked(-self.value, self.error)

    def __abs__(self) -> Tracked:
        return Tracked(abs(self.value), self.error)

    def __float__(self) -> float:
        return self.value

    # comparisons of the floats, for max() and the program's own sign tests
    def __lt__(self, other) -> bool:
        return self.value < float(other)

    def __le__(self, other) -> bool:
        return self.value <= float(other)

    def __gt__(self, other) -> bool:
        return self.value > float(other)

    def __ge__(self, other) -> bool:
        return self.value >= float(other)


def settled(x: Tracked, y, exact_x: Fraction, exact_y: Fraction, test) -> bool | None:
    """``test(exact_x, exact_y)``, which the floats x and y must reproduce; None inside the rounding band."""
    y = Tracked.of(y)
    for computed, exact in ((x, exact_x), (y, exact_y)):
        assert abs(Fraction(computed.value) - exact) <= computed.error, (computed.value, exact, computed.error)
    band = x.error + y.error
    if band and abs(exact_x - exact_y) <= band:
        return None
    return test(exact_x, exact_y)


def all_of(*outcomes: bool | None) -> bool | None:
    if False in outcomes:
        return False
    return None if None in outcomes else True


def any_of(*outcomes: bool | None) -> bool | None:
    if True in outcomes:
        return True
    return None if None in outcomes else False


def unit_of(*values: float) -> tuple[list[Tracked], list[Fraction]]:
    """The program's unit copy of ``values`` as ``Tracked`` floats and as exact values; asserts that it is exact."""
    copy, e = unit_copy(*values)
    assert [math.ldexp(v, e) for v in copy] == list(values)
    return [Tracked(v) for v in copy], [Fraction(v) for v in copy]


def entries(m: Matrix2) -> tuple[float, float, float, float]:
    return m.a11, m.a12, m.a21, m.a22


def scaled(values, j: int) -> list[float]:
    """``values`` times 2^j, with j moved up where an entry would leave the normal floats."""
    lowest = max((-1021 - math.frexp(v)[1] for v in values if v), default=j)
    return [math.ldexp(v, max(j, lowest)) for v in values]


# the threshold's exact value moved by k of its ulps; k = 0 at a power of two leaves every operation exact
ulps = st.one_of(st.just(0), st.integers(-64, 64))
mantissa = st.one_of(st.just(0.5), st.floats(0.5, 1.0, exclude_max=True))
sign = st.sampled_from((1.0, -1.0))
exponent = st.integers(-1000, 1000)


@st.composite
def entry(draw, zero: bool = True) -> float:
    """A sign times [0.5, 1) times 2^-i, i <= 30, or (if ``zero``) 0."""
    if zero and draw(st.integers(0, 4)) == 0:
        return 0.0
    return draw(sign) * math.ldexp(draw(mantissa), -draw(st.integers(0, 30)))


def near(exact: Fraction, k: int) -> float:
    """The float nearest ``exact`` moved by k units of 2^-52 of its size."""
    return float(exact * (1 + Fraction(k, 2**52)))


def big_entry(draw) -> float:
    return draw(sign) * draw(mantissa)


@st.composite
def drifts(draw) -> Matrix2:
    """A unit drift matrix near the repeated-eigenvalue threshold, near a scalar test's threshold, or arbitrary."""
    shape = draw(st.sampled_from(("discriminant", "discriminant", "scalar", "any")))
    big, k = big_entry(draw), draw(ulps)
    if shape == "discriminant":  # zero diagonal: the discriminant 4 a12 a21 at +-SPECTRUM_TOL a12^2
        small = draw(sign) * near(Fraction(SPECTRUM_TOL) * abs(Fraction(big)) / 4, k)
        return Matrix2(0.0, big, small, 0.0) if draw(st.booleans()) else Matrix2(0.0, small, big, 0.0)
    if shape == "scalar":  # c I with one of a12, a21, a22 - a11 near TRACE_ZERO_TOL |c|
        small = draw(sign) * near(Fraction(TRACE_ZERO_TOL) * abs(Fraction(big)), k)
        where = draw(st.sampled_from(("a12", "a21", "a22")))
        if where == "a22":
            return Matrix2(big, 0.0, 0.0, big + small)
        return Matrix2(big, small, 0.0, big) if where == "a12" else Matrix2(big, 0.0, small, big)
    return Matrix2(*(draw(entry()) for _ in range(4)))


@EXAMPLES
@given(drifts(), exponent)
# max|A|^2 overflows while tr^2 - 4 det stays finite; a tiny A divided by a max|A| that is no power of two
@example(Matrix2(0.0, 1.2500000000000004e-11, 0.5, 0.0), 513)
@example(Matrix2(0.904296875, 0.0, 0.0, 0.9042968750904297), -495)
def test_spectral_class_is_the_exact_class(unit_a, j):
    a = Matrix2(*scaled(entries(unit_a), j))
    kind = classify_spectrum(a).kind
    t, (x11, x12, x21, x22) = unit_of(*entries(a))
    u = Matrix2(*t)
    m, big = u.max_abs(), max(map(abs, (x11, x12, x21, x22)))
    tr = u.trace
    disc = tr * tr - 4.0 * u.det
    exact_disc = (x11 - x22) ** 2 + 4 * x12 * x21
    threshold, exact_threshold = SPECTRUM_TOL * m * m, Fraction(SPECTRUM_TOL) * big * big
    repeated = settled(abs(disc), threshold, abs(exact_disc), exact_threshold, operator.le)
    if repeated is False:
        assert kind == (REAL_DISTINCT if exact_disc > 0 else COMPLEX_PAIR), (a, exact_disc)
    if repeated:
        off, exact_off = TRACE_ZERO_TOL * m, Fraction(TRACE_ZERO_TOL) * big
        scalar = all_of(
            settled(abs(u.a12), off, abs(x12), exact_off, operator.le),
            settled(abs(u.a21), off, abs(x21), exact_off, operator.le),
            settled(abs(u.a11 - u.a22), off, abs(x11 - x22), exact_off, operator.le),
        )
        if scalar is not None:
            assert kind == (REPEATED_DIAGONALIZABLE if scalar else REPEATED_DEFECTIVE), a


@st.composite
def drift_diffusions(draw) -> tuple[Matrix2, tuple[float, float, float]]:
    """A unit (A, D) near the zero-trace, zero right-hand side or forced-note threshold, or arbitrary."""
    shape = draw(st.sampled_from(("trace", "rhs", "note", "any")))
    big, k, threshold = big_entry(draw), draw(ulps), Fraction(TRACE_ZERO_TOL)
    d11 = abs(draw(entry(zero=False)))
    if shape == "trace":  # trace a11 beside a larger a12
        a11 = draw(sign) * near(threshold * abs(Fraction(big)), k)
        return Matrix2(a11, big, draw(entry()), 0.0), (d11, 0.0, abs(draw(entry())) * d11)
    if shape == "rhs":  # zero trace and zero a21: c = a12 d22 against TRACE_ZERO_TOL |a12| d11
        return Matrix2(0.0, big, 0.0, 0.0), (d11, 0.0, near(threshold * Fraction(d11), k))
    if shape == "note":  # zero trace and a11 - a22 beside larger off-diagonals
        half = draw(sign) * near(threshold * abs(Fraction(big)) / 2, k)
        other = draw(entry())
        a = Matrix2(half, big, other, -half) if draw(st.booleans()) else Matrix2(half, other, big, -half)
        return a, draw(st.sampled_from(((0.0, 0.0, 0.0), (d11, 0.0, d11))))
    a11, a12, a21 = (draw(entry()) for _ in range(3))
    a22 = -a11 if draw(st.booleans()) else draw(entry())
    d22, rho = abs(draw(entry())), draw(st.sampled_from((0.0, 1.0, -1.0, 0.5)))
    return Matrix2(a11, a12, a21, a22), (d11, rho * math.sqrt(d11) * math.sqrt(d22), d22)


@EXAMPLES
@given(drift_diffusions(), exponent, exponent)
def test_gyration_branch_and_note_are_the_exact_ones(request, j, k):
    unit_a, unit_d = request
    a, d = Matrix2(*scaled(entries(unit_a), j)), DiffusionParams(*scaled(unit_d, k))
    sol = solve_gyration(a, d)
    ta, (x11, x12, x21, x22) = unit_of(*entries(a))
    td, (e11, e12, e22) = unit_of(d.d11, d.d12, d.d22)
    u, du = Matrix2(*ta), DiffusionParams(*td)
    big_a, big_d = max(map(abs, (x11, x12, x21, x22))), max(map(abs, (e11, e12, e22)))
    trace_tol, exact_tol = TRACE_ZERO_TOL * u.max_abs(), Fraction(TRACE_ZERO_TOL) * big_a
    unique = settled(abs(u.trace), trace_tol, abs(x11 + x22), exact_tol, operator.gt)
    if unique:
        assert sol.branch == UNIQUE, (a, d)
    elif unique is False:
        c = -x21 * e11 + (x11 - x22) * e12 + x12 * e22
        rhs_tol = trace_tol * max(map(abs, td))
        family = settled(abs(constraint_rhs(u, du)), rhs_tol, abs(c), exact_tol * big_d, operator.le)
        if family is not None:
            assert sol.branch == (FAMILY if family else INCONSISTENT), (a, d)
    if sol.branch != UNIQUE:
        forced = all_of(
            settled(abs(u.a11 - u.a22), trace_tol, abs(x11 - x22), exact_tol, operator.le),
            settled(-u.a21 * u.a12, 0.0, -x21 * x12, Fraction(0), operator.gt),
        )
        if forced is not None:
            assert (FORCED in sol.note) == forced, (a, sol.note)


@st.composite
def square_matrices(draw) -> Matrix2:
    """A unit matrix with a triangular determinant near SINGULAR_DET_TOL max|M|^2, or arbitrary."""
    if draw(st.integers(0, 3)) == 0:
        return Matrix2(*(draw(entry()) for _ in range(4)))
    pivot, other, k = draw(entry(zero=False)), draw(entry()), draw(ulps)
    largest = max(abs(pivot), abs(other))
    last = draw(sign) * near(Fraction(SINGULAR_DET_TOL) * Fraction(largest) ** 2 / abs(Fraction(pivot)), k)
    m = Matrix2(pivot, other, 0.0, last)
    return m if draw(st.booleans()) else m.transpose()


@EXAMPLES
@given(square_matrices(), exponent)
def test_singular_test_is_the_exact_one(unit_m, j):
    m = Matrix2(*scaled(entries(unit_m), j))
    try:
        invert2(m)
        singular = False
    except SingularMatrix:
        singular = True
    except ValueError:  # an entry of the inverse beyond float64
        singular = False
    t, x = unit_of(*entries(m))
    u = Matrix2(*t)
    scale, big = u.max_abs(), max(map(abs, x))
    exact_det = x[0] * x[3] - x[1] * x[2]
    threshold, exact_threshold = SINGULAR_DET_TOL * scale * scale, Fraction(SINGULAR_DET_TOL) * big * big
    expected = settled(abs(u.det), threshold, abs(exact_det), exact_threshold, operator.le)
    if expected is not None:
        assert singular == expected, m


def _semidefinite(t: list[Tracked], x: list[Fraction]) -> bool | None:
    """The determinant test of a unit copy's PSD check: det >= -PSD_SLACK * max|entry|^2."""
    det = Matrix2(*t).det
    scale, big = max(map(abs, t)), max(map(abs, x))
    exact_det = x[0] * x[3] - x[1] * x[2]
    return settled(det, -PSD_SLACK * scale * scale, exact_det, -Fraction(PSD_SLACK) * big * big, operator.ge)


@st.composite
def psd_candidates(draw, shapes=("det", "det", "asymmetric", "any")) -> tuple[float, float, float, float]:
    """Unit entries (m11, m12, m21, m22) near the determinant threshold, the symmetry threshold or arbitrary."""
    shape = draw(st.sampled_from(shapes))
    big, k = abs(big_entry(draw)), draw(ulps)
    if shape == "det":  # zero m11: det = -m12^2 at -PSD_SLACK m22^2
        off = draw(sign) * math.sqrt(PSD_SLACK) * big * (1.0 + k * 2.0**-53)
        return (0.0, off, off, big) if draw(st.booleans()) else (big, off, off, 0.0)
    if shape == "asymmetric":  # a diagonal S with one off-diagonal entry near PSD_SLACK max|S|
        off = draw(sign) * near(Fraction(PSD_SLACK) * Fraction(big), k)
        return (big, off, 0.0, abs(draw(entry()))) if draw(st.booleans()) else (big, 0.0, off, abs(draw(entry())))
    m11, m22 = draw(entry()), draw(entry())
    off = draw(st.sampled_from((0.0, 1.0, -1.0, 1.5))) * math.sqrt(abs(m11)) * math.sqrt(abs(m22))
    return m11, off, off + draw(st.sampled_from((0.0, draw(entry())))), m22


@EXAMPLES
@given(psd_candidates(("det", "det", "det", "any")), exponent)
def test_diffusion_psd_test_is_the_exact_one(unit_m, j):
    m11, m12, _, m22 = scaled(unit_m, j)
    m11, m22 = abs(m11), abs(m22)
    try:
        DiffusionParams(m11, m12, m22)
        refused = False
    except ValueError:
        refused = True
    t, x = unit_of(m11, m12, m22)
    expected = _semidefinite([t[0], t[1], t[1], t[2]], [x[0], x[1], x[1], x[2]])
    if expected is not None:
        assert refused == (not expected), (m11, m12, m22)


@EXAMPLES
@given(psd_candidates(), exponent)
@example((0.25, 0.5, 0.5, 0.25), 565)  # about 1e170, where the plain determinant is inf - inf
def test_friction_psd_test_is_the_exact_one(unit_m, j):
    s = Matrix2(*scaled(unit_m, j))
    try:
        friction_power(s, 1.0, 0.0)
        refused = False
    except NotPSD:
        refused = True
    t, x = unit_of(*entries(s))
    scale, big = max(map(abs, t)), max(map(abs, x))
    slack, exact_slack = PSD_SLACK * scale, Fraction(PSD_SLACK) * big
    semidefinite = _semidefinite(t, x)
    expected = any_of(
        settled(abs(t[1] - t[2]), slack, abs(x[1] - x[2]), exact_slack, operator.gt),
        settled(t[0] + t[3], -slack, x[0] + x[3], -exact_slack, operator.lt),
        None if semidefinite is None else not semidefinite,
    )
    if expected is not None:
        assert refused == expected, s


@st.composite
def gyration_requests(draw) -> tuple[Matrix2, tuple[float, float, float], float]:
    """A unit (A, D, q) whose constraint residual is near its bound, or arbitrary with a solved or drawn q."""
    if draw(st.integers(0, 3)):  # zero trace and zero a21: R = sqrt(2) |a12| d22 against sqrt(2) t |a12| (|q| + d11)
        big, q, d11 = big_entry(draw), draw(entry()), abs(draw(entry(zero=False)))
        d22 = near(Fraction(TRACE_ZERO_TOL) * (abs(Fraction(q)) + Fraction(d11)), draw(ulps))
        half = draw(entry()) * 2.0**-40
        return Matrix2(half, big, 0.0, -half), (d11, 0.0, d22), q
    a = Matrix2(*(draw(entry()) for _ in range(4)))
    d11, d22 = abs(draw(entry(zero=False))), abs(draw(entry()))
    d = (d11, draw(st.sampled_from((0.0, 0.5, -1.0))) * math.sqrt(d11) * math.sqrt(d22), d22)
    solved = solve_gyration(a, DiffusionParams(*d)).q
    q = draw(st.sampled_from((solved, "drawn"))) if solved is not None else "drawn"
    return a, d, draw(entry()) if q == "drawn" else q


@EXAMPLES
@given(gyration_requests(), exponent, exponent)
def test_gyration_judge_is_the_exact_one(request, j, k):
    unit_a, unit_d, unit_q = request
    a = Matrix2(*scaled(entries(unit_a), j))
    q, d11, d12, d22 = scaled((unit_q, *unit_d), k)
    d = DiffusionParams(d11, d12, d22)
    try:
        assemble_decomposition(a, d, q)
        refused = False
    except AsymmetricU:
        refused = True
    except (SingularMatrix, ValueError):  # judged and accepted; D + Q singular, or an entry beyond float64
        refused = False
    ta, (x11, x12, x21, x22) = unit_of(*entries(a))
    (tq, *td), (eq, e11, e12, e22) = unit_of(q, d11, d12, d22)
    u, qm, dm = Matrix2(*ta), Matrix2(0.0, tq, -tq, 0.0), Matrix2(td[0], td[1], td[1], td[2])
    diff = ((u @ qm) + (qm @ u.transpose())) - ((u @ dm) - (dm @ u.transpose()))
    squares = diff.a11 * diff.a11 + diff.a12 * diff.a12 + diff.a21 * diff.a21 + diff.a22 * diff.a22
    residual = diff.frobenius()
    assert residual == math.sqrt(squares.value)
    sqrt2 = Tracked(math.sqrt(2.0), Fraction(math.ulp(math.sqrt(2.0))))
    bound = sqrt2 * TRACE_ZERO_TOL * u.max_abs() * (abs(tq) + dm.max_abs())
    c = -x21 * e11 + (x11 - x22) * e12 + x12 * e22
    exact_r2 = 2 * ((x11 + x22) * eq - c) ** 2
    big_a, big_d = max(map(abs, (x11, x12, x21, x22))), max(map(abs, (e11, e12, e22)))
    exact_b2 = 2 * Fraction(TRACE_ZERO_TOL) ** 2 * big_a**2 * (abs(eq) + big_d) ** 2
    r2, b2 = Fraction(residual) ** 2, Fraction(bound.value) ** 2
    r2_band = abs(r2 - Fraction(squares.value)) + squares.error
    b2_band = bound.error * (2 * abs(Fraction(bound.value)) + bound.error)
    assert abs(r2 - exact_r2) <= r2_band and abs(b2 - exact_b2) <= b2_band
    if abs(exact_r2 - exact_b2) > r2_band + b2_band:
        assert refused == (exact_r2 > exact_b2), (a, d, q)

