"""Core substrate: splits, inversion, diffusion validation, field fallbacks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aodecomp import (
    AntisymScalar,
    DiffusionParams,
    Matrix2,
    Point2,
    QSolution,
    ScalarField,
    SingularMatrix,
    SystemSpec,
    VectorField,
    central_divergence,
    central_gradient,
    get,
    integrate,
    invert2,
    sym_antisym_split,
)
from aodecomp.core import FrozenRecordError, record, scale_back, unit_copy
from helpers import random_matrix


def test_split_symmetric_input():
    sym, anti = sym_antisym_split(Matrix2.identity())
    assert sym == Matrix2.identity()
    assert anti.q == 0.0


def test_split_antisymmetric_input():
    sym, anti = sym_antisym_split(Matrix2(0.0, 1.0, -1.0, 0.0))
    assert sym == Matrix2.zero()
    assert anti.q == 1.0


def test_split_mixed_input():
    # (M + M^T)/2 and (M - M^T)/2 computed by hand for [[1,1],[-1,1]]
    sym, anti = sym_antisym_split(Matrix2(1.0, 1.0, -1.0, 1.0))
    assert sym == Matrix2.identity()
    assert anti.q == 1.0


def test_split_reassembles_and_sym_is_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = random_matrix(rng, -5.0, 5.0)
        sym, anti = sym_antisym_split(m)
        assert sym.a12 == sym.a21
        back = sym + anti.matrix()
        assert (back - m).max_abs() <= 1e-15 * (1.0 + m.max_abs())


def test_invert2_identity():
    assert invert2(Matrix2.identity()) == Matrix2.identity()


def test_invert2_fixture():
    # adjugate/determinant by hand: det = 2
    inv = invert2(Matrix2(1.0, 1.0, -1.0, 1.0))
    assert inv == Matrix2(0.5, -0.5, 0.5, 0.5)


def test_invert2_singular():
    with pytest.raises(SingularMatrix) as excinfo:
        invert2(Matrix2.zero())
    assert excinfo.value.det == 0.0


@pytest.mark.parametrize(
    "scale, shown",
    [(1.0, "-3.0"), (1e-170, "-0.27346161377212586 * 2**-1126"), (2.0**-1000, "-0.1875 * 2**-1996")],
)
def test_refused_diffusion_names_its_determinant(scale, shown):
    # the determinant of scale * (1, 2, 1) underflows below 1e-162; its unit copy's value and power of two do not
    with pytest.raises(ValueError) as excinfo:
        DiffusionParams(scale, 2.0 * scale, scale)
    assert str(excinfo.value) == f"diffusion must be positive semidefinite: d11*d22 - d12^2 = {shown} < 0"


def test_singular_matrix_names_its_determinant():
    # det(M) = 1e-13 * max|M|^2 is singular; at 1e-170 it underflows past the subnormals and is spelled out,
    # while the determinant of a matrix of equal entries is exactly 0 at every scale
    for scale, shown in ((1.0, "1e-13"), (1e-170, "3.646154850295011e-14 * 2**-1128")):
        with pytest.raises(SingularMatrix) as excinfo:
            invert2(Matrix2(1.0, 0.0, 0.0, 1e-13).scaled(scale))
        assert str(excinfo.value) == f"matrix is singular within tolerance (det={shown})"
        with pytest.raises(SingularMatrix) as excinfo:
            invert2(Matrix2(scale, scale, scale, scale))
        assert str(excinfo.value) == "matrix is singular within tolerance (det=0.0)"


def test_invert2_inverts_where_the_determinant_overflows():
    # both products are finite and their difference overflows; the unit copy's inverse, scaled back, is finite
    m = Matrix2(1.3e154, 1.3e154, -1.3e154, 1.3e154)
    (a11, a12, a21, a22), e = unit_copy(m.a11, m.a12, m.a21, m.a22)
    unit_inverse = invert2(Matrix2(a11, a12, a21, a22))
    assert invert2(m) == unit_inverse.scaled(2.0 ** -e)
    assert ((m @ invert2(m)) - Matrix2.identity()).max_abs() <= 1e-15


def test_invert2_keeps_the_adjugate_bits_where_they_stay_normal():
    # the unit copy's det and 1 / det are the plain formula's scaled by powers of two, rounding for rounding
    rng = np.random.default_rng(30)
    for _ in range(2000):
        scale = 10.0 ** float(rng.uniform(-100, 100))
        m = Matrix2(*(scale * float(v) * 10.0 ** float(w) for v, w in zip(rng.uniform(-1, 1, 4), rng.uniform(-3, 3, 4))))
        inv = 1.0 / m.det
        assert invert2(m) == Matrix2(m.a22 * inv, -m.a12 * inv, -m.a21 * inv, m.a11 * inv)


def test_unit_copy_scales_by_a_power_of_two_into_half_to_one():
    for values in ([3.0, -0.25], [1e-300, 5e-310], [1.7e308, 0.0], [-0.5, 0.0, 0.5]):
        copy, e = unit_copy(*values)
        assert 0.5 <= max(map(abs, copy)) < 1.0
        assert [math.ldexp(v, e) for v in copy] == values
    assert unit_copy(0.0, -0.0) == ([0.0, -0.0], 0)


def test_scale_back_overflows_to_a_signed_infinity():
    assert scale_back(0.75, 1025) == math.inf and scale_back(-0.75, 1025) == -math.inf
    assert scale_back(0.75, -1100) == 0.0
    assert scale_back(0.75, 2) == 3.0


def test_invert2_roundtrip():
    rng = np.random.default_rng(11)
    count = 0
    while count < 200:
        m = random_matrix(rng)
        if abs(m.det) < 1e-3:
            continue
        count += 1
        prod = m @ invert2(m)
        assert (prod - Matrix2.identity()).max_abs() <= 1e-12 * (1.0 + m.max_abs() ** 2)
        assert (invert2(invert2(m)) - m).max_abs() <= 1e-9


def test_diffusion_accepts_boundary():
    DiffusionParams.identity()
    DiffusionParams.zero()
    DiffusionParams(1.0, 1.0, 1.0)  # det exactly zero
    DiffusionParams(2.0, -1.0, 1.0)


def test_diffusion_accepts_rank_one_outer_products():
    # d11*d22 - d12^2 of outer(v, v) rounds below zero for about 28% of these draws
    v = np.random.default_rng(20261018).standard_normal((10000, 2))
    for a, b in v.tolist():
        DiffusionParams(a * a, a * b, b * b)


@pytest.mark.parametrize(
    "triple",
    [(-1.0, 0.0, 1.0), (1.0, 0.0, -1.0), (1.0, 2.0, 1.0), (0.0, 0.1, 0.0), (-1e-300, 0.0, 1.0)],
)
def test_diffusion_rejects_invalid(triple):
    with pytest.raises(ValueError):
        DiffusionParams(*triple)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_rejected(bad):
    with pytest.raises(ValueError):
        Point2(bad, 0.0)
    with pytest.raises(ValueError):
        Matrix2(1.0, bad, 0.0, 1.0)
    with pytest.raises(ValueError):
        DiffusionParams(1.0, bad, 1.0)


def test_central_gradient_matches_analytic():
    phi = ScalarField(
        lambda x1, x2: math.sin(x1) * math.cos(x2) + x1 * x2**2,
        gradient_fn=lambda x1, x2: (
            math.cos(x1) * math.cos(x2) + x2**2,
            -math.sin(x1) * math.sin(x2) + 2.0 * x1 * x2,
        ),
    )
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = Point2(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        exact = phi.gradient(x)
        approx = Point2(*central_gradient(phi.fn, x.x1, x.x2))
        assert (approx - exact).norm() <= 1e-5 * (1.0 + exact.norm())


def test_central_differences_take_the_documented_step():
    # a central difference of a cubic is off by h^2 f''' / 6, which is h^2 here, so these values pin the step
    # h = FD_STEP * (1 + |x_i|) of each coordinate, with FD_STEP = 1e-6
    g1, g2 = central_gradient(lambda x1, x2: (x1 - 1.0) ** 3 + (x2 + 3.0) ** 3, 1.0, -3.0)
    assert (g1, g2) == (pytest.approx(2e-6**2, rel=1e-6), pytest.approx(4e-6**2, rel=1e-6))
    div = central_divergence(lambda x1, x2: ((x1 - 1.0) ** 3, (x2 + 3.0) ** 3), 1.0, -3.0)
    assert div == pytest.approx(2e-6**2 + 4e-6**2, rel=1e-6)


def test_scalar_field_fallback_flag():
    with_grad = ScalarField(lambda x1, x2: x1, gradient_fn=lambda x1, x2: (1.0, 0.0))
    without = ScalarField(lambda x1, x2: x1)
    assert with_grad.gradient_fn is not None
    assert without.gradient_fn is None
    g = without.gradient(Point2(0.3, -0.7))
    assert abs(g.x1 - 1.0) <= 1e-9 and abs(g.x2) <= 1e-9


def test_vector_field_divergence_fallback():
    field = VectorField(lambda x1, x2: (x1**2, -3.0 * x2))
    x = Point2(0.8, -1.1)
    assert abs(field.divergence(x) - (2.0 * x.x1 - 3.0)) <= 1e-6


def test_many_returns_a_float64_column_as_is_and_broadcasts_the_rest():
    x1, x2 = np.array([1.0, -2.0, 0.5]), np.array([0.5, 3.0, -0.0])
    made = []

    def fn(a, b):
        made.append(a * b)
        return made[-1], -0.0

    f1, f2 = VectorField(fn).evaluate_many(x1, x2)
    assert f1 is made[0]
    assert not f2.flags.writeable and f2.shape == x1.shape and np.all(np.signbit(f2))
    # an array of another dtype or shape is converted and broadcast
    g1, g2 = VectorField(lambda a, b: (a.astype(np.float32), np.array([2.0]))).evaluate_many(x1, x2)
    assert g1.dtype == np.float64 and g1.tolist() == [1.0, -2.0, 0.5]
    assert g2.tolist() == [2.0, 2.0, 2.0]


def test_records_print_like_dataclasses():
    assert repr(Point2(1.0, 2.0)) == "Point2(x1=1.0, x2=2.0)"
    assert repr(Matrix2(1.0, -0.0, 0.5, 4.0)) == "Matrix2(a11=1.0, a12=-0.0, a21=0.5, a22=4.0)"
    # the stage is read from fn, not a field of the record
    field = VectorField.from_stage("f1, f2 = x2, -x1")
    assert repr(field) == f"VectorField(fn={field.fn!r}, divergence_fn=None)"


def test_a_stage_field_rebuilt_from_its_fields_equals_it_and_steps_the_same():
    field = get("hopf_limit_cycle").system.field
    rebuilt = VectorField(field.fn, field.divergence_fn)
    assert rebuilt == field and repr(rebuilt) == repr(field) and rebuilt.stage == field.stage is not None
    runs = [integrate(SystemSpec("hopf", f), Point2(0.5, 0.25), dt=0.01, t_end=5.0) for f in (field, rebuilt)]
    assert np.array_equal(runs[0].x, runs[1].x) and np.array_equal(runs[0].div_f, runs[1].div_f)


def test_records_compare_and_hash_their_field_tuples_within_one_class():
    p = Point2(1.0, 2.0)
    assert p == Point2(x2=2.0, x1=1.0)
    assert p != Point2(1.0, 3.0)
    assert p != (1.0, 2.0)
    assert p.__eq__((1.0, 2.0)) is NotImplemented
    assert hash(p) == hash((p.x1, p.x2))
    assert hash(AntisymScalar(0.5)) == hash((0.5,))

    @record
    class Left:
        v: float

    @record
    class Right:
        v: float

    assert Left(1.0) == Left(1.0)
    assert Left(1.0) != Right(1.0)


def test_records_are_frozen():
    p = Point2(1.0, 2.0)
    with pytest.raises(AttributeError, match="cannot assign to field 'x1'"):
        p.x1 = 3.0
    with pytest.raises(FrozenRecordError, match="cannot delete field 'x2'"):
        del p.x2
    with pytest.raises(AttributeError):
        p.other = 0.0
    assert p == Point2(1.0, 2.0)


def test_post_init_checks_positional_and_keyword_construction():
    with pytest.raises(ValueError, match="Point2 entries must be finite"):
        Point2(math.nan, 0.0)
    with pytest.raises(ValueError, match="Point2 entries must be finite"):
        Point2(x1=0.0, x2=math.inf)
    with pytest.raises(ValueError, match="nonnegative"):
        DiffusionParams(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        DiffusionParams(d11=1.0, d12=0.0, d22=-1.0)


def test_records_fill_defaults_and_refuse_bad_arguments():
    solution = QSolution("unique", 2.0)
    assert (solution.note, solution.residual) == ("", 0.0)
    assert QSolution("inconsistent", None, residual=0.5).residual == 0.5
    field = VectorField(lambda x1, x2: (x2, -x1))
    spec = SystemSpec("spec", field)
    assert (spec.potential, spec.friction) == (None, None)
    assert field.divergence_fn is None and field.stage is None
    with pytest.raises(TypeError, match="stage"):
        VectorField(field.fn, stage="f1, f2 = x2, -x1")
    for args, kwargs in (((1.0,), {}), ((1.0, 2.0, 3.0), {}), ((1.0,), {"x1": 2.0}), ((1.0, 2.0), {"x3": 0.0})):
        with pytest.raises(TypeError):
            Point2(*args, **kwargs)



def test_a_record_names_what_is_wrong_with_its_arguments():
    # every field given positionally and once more by keyword is a duplicate, not one positional too many
    with pytest.raises(TypeError, match="^Point2\\(\\) got multiple values for argument 'x1'$"):
        Point2(1.0, 2.0, x1=3.0)
    with pytest.raises(TypeError, match="^Point2\\(\\) takes 2 positional arguments but 3 were given$"):
        Point2(1.0, 2.0, 3.0)
    with pytest.raises(TypeError, match="^Point2\\(\\) got an unexpected keyword argument 'x3'$"):
        Point2(1.0, 2.0, x3=3.0)
