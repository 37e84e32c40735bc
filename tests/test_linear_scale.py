"""The linear construction's zero tests scale with the matrix.

Each zero test of ``classify_spectrum``, ``solve_gyration``,
``assemble_decomposition`` and the ``--q`` check is relative to max|A| (and
max|D|, |q| or max|U| where those enter). A drift matrix scaled by a
positive factor has the same spectral kind, the same gyration branch and q,
and the same ``--q`` verdict; its eigenvalues scale by the factor. With an
absolute floor such as ``1 + max|A|``, a small A reads as a repeated
eigenvalue, a zero trace, or a satisfied constraint, where its large copy
reads right.

The same holds for the diffusion and friction matrices: ``invert2``'s
singular test, the PSD tests of ``DiffusionParams`` and of a friction
matrix, and the judgment of q (linear in q and D together) are relative to
the matrix, so a small D, S or q gets the verdict of its scaled copy.

Each of the linear tests is made on power-of-two unit copies, so it holds
past the range where a product of two entries stays a normal float (about
1e-154 to 1e154): the boundary tests below pin each bound at three scales
across that range, and a derandomized property scales A and (q, D) by
powers of two up to 2^+-1000.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np

from aodecomp import (
    AsymmetricU, DiffusionParams, Matrix2, NotPSD, SingularMatrix, SystemSpec, assemble_decomposition, invert2,
    solve_gyration,
)
from aodecomp.cli import main
from aodecomp.dissipation import VERDICTS, report_many
from aodecomp.linear import FAMILY, INCONSISTENT, UNIQUE

BIG = 1e12
# (--matrix at 1e-12 scale, --d, --q or None); the large copy is the matrix times BIG
SMALL_REQUESTS = {
    "distinct_node": ((1e-12, 0.0, 0.0, 2e-12), "1,0.3,1", None),
    "stable_spiral": ((-1e-11, 1e-11, -1e-11, -1e-11), "1,0.3,1", None),
    "node_bad_q": ((1e-12, 0.0, 0.0, 2e-12), "1,0.3,1", "5"),
}


def _decompose(capsys, matrix, d, q):
    argv = ["decompose", "--matrix", ",".join(map(repr, matrix)), "--d", d]
    code = main(argv + ([] if q is None else ["--q", q]))
    out, err = capsys.readouterr()
    # a refused --q: the message up to its residual, which scales with A
    return code, json.loads(out) if code == 0 else err.partition(" (residual")[0]


@pytest.mark.parametrize("label", SMALL_REQUESTS)
def test_small_matrix_reads_as_its_large_copy(label, capsys):
    matrix, d, q = SMALL_REQUESTS[label]
    small_code, small = _decompose(capsys, matrix, d, q)
    big_code, big = _decompose(capsys, [v * BIG for v in matrix], d, q)
    assert small_code == big_code
    if big_code != 0:
        assert small == big
        return
    assert small["spectral_class"]["kind"] == big["spectral_class"]["kind"]
    assert small["gyration_branch"] == big["gyration_branch"]
    assert small["gyration_note"] == big["gyration_note"]
    assert math.isclose(small["gyration"], big["gyration"], rel_tol=1e-12)
    for v_small, v_big in zip(small["spectral_class"]["values"], big["spectral_class"]["values"], strict=True):
        assert math.isclose(v_small * BIG, v_big, rel_tol=1e-12)


def test_wrong_gyration_of_a_small_matrix_is_asymmetric():
    a, d = Matrix2.diagonal(1e-12, 2e-12), DiffusionParams(1.0, 0.3, 1.0)
    with pytest.raises(AsymmetricU):
        assemble_decomposition(a, d, 5.0)
    with pytest.raises(AsymmetricU):
        assemble_decomposition(a.scaled(BIG), d, 5.0)



# (--d at a small scale, --q or None, factor); the large copy is D and q times the factor, A stays diag(-1, -2)
SMALL_DIFFUSION_REQUESTS = {
    "scalar_d_invertible": ((1e-7, 0.0, 1e-7), None, 1e7),
    "indefinite_d": ((1e-7, 2e-7, 1e-7), None, 1e7),
    "violating_q": ((1e-12, 3e-13, 1e-12), 0.0, 1e12),
    "solving_q": ((1e-12, 3e-13, 1e-12), -1e-13, 1e12),
    # det(D + Q) leaves the normal floats; once the inverse of 1e-160 I overflowed and 1e160 I read as singular
    "d_whose_det_underflows": ((1e-160, 0.0, 1e-160), None, 1e160),
    "d_whose_det_overflows": ((1.0, 0.0, 1.0), None, 1e160),
    "solving_q_of_a_tiny_d": ((1e-160, 3e-161, 1e-160), -1e-161, 1e160),
    "violating_q_of_a_huge_d": ((1.0, 0.3, 1.0), 0.0, 1e160),
}
# the phrase that names each refusal of a decompose request
REFUSALS = (
    "is singular",
    "positive semidefinite",
    "violates the gyration constraint",
    "potential matrix is not symmetric",
)


def _decompose_diffusion(capsys, d, q):
    argv = ["decompose", "--matrix", "-1,0,0,-2", "--d", ",".join(map(repr, d))]
    code = main(argv + ([] if q is None else ["--q", repr(q)]))
    out, err = capsys.readouterr()
    if code == 0:
        return code, json.loads(out)
    return code, [phrase for phrase in REFUSALS if phrase in err]


@pytest.mark.parametrize("label", SMALL_DIFFUSION_REQUESTS)
def test_small_diffusion_reads_as_its_large_copy(label, capsys):
    d, q, factor = SMALL_DIFFUSION_REQUESTS[label]
    small_code, small = _decompose_diffusion(capsys, d, q)
    big_code, big = _decompose_diffusion(capsys, [v * factor for v in d], None if q is None else q * factor)
    assert small_code == big_code
    if big_code != 0:
        assert len(big) == 1 and small == big
        return
    assert small["spectral_class"] == big["spectral_class"]
    assert small["gyration_branch"] == big["gyration_branch"]
    assert math.isclose(small["gyration"] * factor, big["gyration"], rel_tol=1e-12, abs_tol=1e-300)
    # S, t and U scale with the inverse of D + Q
    for key in ("friction", "potential_matrix"):
        for v_small, v_big in zip(sum(small[key], []), sum(big[key], []), strict=True):
            assert math.isclose(v_small, v_big * factor, rel_tol=1e-12, abs_tol=1e-300)


def test_small_indefinite_diffusion_is_refused():
    # at 1e-170 the determinant's products underflow to 0, and at 1e170 they overflow
    for factor in (1.0, 1e7, 1e-163, 1e177):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DiffusionParams(1e-7 * factor, 2e-7 * factor, 1e-7 * factor)


def _power_verdict(friction: Matrix2):
    system = SystemSpec.linear("s", Matrix2.diagonal(-1.0, -2.0), friction=friction)
    try:
        columns = report_many(system, np.array([1.0]), np.array([-1.0]))
    except NotPSD:
        return "NotPSD"
    return VERDICTS[int(columns.verdict_power[0])]


# (friction matrix S at a small scale, its power verdict at (1, -1)); the large copy is S times 1e7
SMALL_FRICTIONS = {
    "indefinite": ((1e-7, 2e-7, 2e-7, 1e-7), "NotPSD"),
    "asymmetric": ((1e-7, 1e-7 + 1e-18, 1e-7, 1e-7), "NotPSD"),
    "negative_definite": ((-1e-13, 0.0, 0.0, -1e-13), "NotPSD"),
    "zero": ((0.0, 0.0, 0.0, 0.0), "conservative"),
}


@pytest.mark.parametrize("label", SMALL_FRICTIONS)
def test_small_friction_reads_as_its_large_copy(label):
    friction, verdict = SMALL_FRICTIONS[label]
    assert _power_verdict(Matrix2(*friction)) == verdict
    assert _power_verdict(Matrix2(*(v * 1e7 for v in friction))) == verdict


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
def test_forced_diffusion_note_at_every_scale(scale):
    # c11 = c22 = scale and c12 = 0: same-sign coefficients force D = 0; c11 * c22 once underflowed to 0
    code, out, err = _cli(["decompose", "--matrix", f"0,{scale!r},{-scale!r},0", "--d", "0,0,0"])
    assert (code, err) == (0, "")
    c = repr(scale)
    assert json.loads(out)["gyration_note"] == (
        f"trace(A) = 0 forces ({c})*d11 + (0.0)*d12 + ({c})*d22 = 0, hence d11 = d22 = d12 = 0; "
        "satisfied, gyration is a free parameter"
    )


def test_huge_drift_over_a_huge_diffusion_decomposes(capsys):
    # A D once overflowed in the constraint residual; U = -D^(-1) A = diag(1e50, 2e50)
    code = main(["decompose", "--matrix", "-1e200,0,0,-2e200", "--d", "1e150,0,1e150"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    doc = json.loads(out)
    for got, want in zip(sum(doc["potential_matrix"], []), (1e50, 0.0, 0.0, 2e50), strict=True):
        assert math.isclose(got, want, rel_tol=1e-15)


# Each bound of the linear construction, just above and at half or less of its tolerance, at several scales;
# a bound made looser by a factor of 1.5 or more (an absolute floor on a unit copy) moves the first verdict.
SCALES = (1e-160, 1.0, 1e160)


@pytest.mark.parametrize("scale", SCALES)
def test_trace_is_zero_up_to_its_bound(scale):
    # trace(A) is zero below 1e-10 * max|A|
    d = DiffusionParams(1.0, 0.0, 1.0)
    assert solve_gyration(Matrix2.diagonal(1.0, -1.0 + 1.5e-10).scaled(scale), d).branch == UNIQUE
    assert solve_gyration(Matrix2.diagonal(1.0, -1.0 + 0.5e-10).scaled(scale), d).branch == FAMILY


@pytest.mark.parametrize("scale", SCALES)
def test_right_hand_side_is_zero_up_to_its_bound(scale):
    # with trace(A) = 0, the right-hand side 2 * d12 is zero below 1e-10 * max|A| * max|D| = 2e-10
    a = Matrix2.diagonal(1.0, -1.0)
    assert solve_gyration(a, DiffusionParams(2.0 * scale, 1.5e-10 * scale, 2.0 * scale)).branch == INCONSISTENT
    assert solve_gyration(a, DiffusionParams(2.0 * scale, 0.5e-10 * scale, 2.0 * scale)).branch == FAMILY


@pytest.mark.parametrize("scale", SCALES)
def test_inverse_is_singular_up_to_its_bound(scale):
    # det = d * max|M|^2 against the bound 1e-12 * max|M|^2
    for d, singular in ((1.5e-12, False), (0.5e-12, True)):
        m = Matrix2(1.0, 1.0, 1.0, 1.0 + d).scaled(scale)
        if singular:
            with pytest.raises(SingularMatrix):
                invert2(m)
        else:
            invert2(m)


@pytest.mark.parametrize("scale", SCALES)
def test_diffusion_is_semidefinite_up_to_its_slack(scale):
    # d11 * d22 - d12^2 = -2 e against the slack -1e-12 * max|D|^2
    DiffusionParams(scale, (1.0 + 0.25e-12) * scale, scale)
    with pytest.raises(ValueError, match="positive semidefinite"):
        DiffusionParams(scale, (1.0 + 0.75e-12) * scale, scale)


@pytest.mark.parametrize("scale", SCALES)
def test_friction_is_symmetric_up_to_its_slack(scale):
    # |s21 - s12| = e * max|S| against the slack 1e-12 * max|S|
    for e, refused in ((1.5e-12, True), (0.5e-12, False)):
        assert (_power_verdict(Matrix2(1.0, 0.0, e, 1.0).scaled(scale)) == "NotPSD") == refused


@pytest.mark.parametrize("scale_a, scale_d", [(1.0, 1.0), (1e-160, 1e160), (1e100, 1e-160), (1e-200, 1e-200)])
def test_gyration_is_accepted_up_to_its_bound(scale_a, scale_d):
    # stable_node: the residual sqrt(2) * 3 * |q - q*| against the bound sqrt(2) * 1e-10 * 2 * (|q| + 1),
    # about 1.36 times the bound at q* + 1e-10 and 0.68 times it at q* + 0.5e-10
    a, d = Matrix2.diagonal(-1.0, -2.0).scaled(scale_a), DiffusionParams(scale_d, 0.3 * scale_d, scale_d)
    q_star = solve_gyration(a, d).q
    assert math.isclose(q_star, -0.1 * scale_d, rel_tol=1e-15)
    with pytest.raises(AsymmetricU):
        assemble_decomposition(a, d, q_star + 1e-10 * scale_d)
    assemble_decomposition(a, d, q_star + 0.5e-10 * scale_d)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _verdict(a: Matrix2, d: DiffusionParams, q: float) -> str:
    try:
        assemble_decomposition(a, d, q)
    except AsymmetricU:
        return "violates"
    except (SingularMatrix, ValueError):  # D + Q singular, or a matrix entry past float64
        return "accepted"
    return "accepted"


# a unit entry: a sign times [0.5, 1) times 2^-i for i <= 30, or 0, so every copy scaled below stays normal
nonzero_entry = st.builds(
    lambda m, i, sign: sign * math.ldexp(m, -i),
    st.floats(0.5, 1.0, exclude_max=True), st.integers(0, 30), st.sampled_from((-1.0, 1.0)),
)
unit_entry = st.one_of(nonzero_entry, st.just(0.0))


@st.composite
def unit_requests(draw):
    """(A, D, q or None): a drift, a PSD diffusion and an optional gyration, all of magnitude at most 1."""
    a11, a12, a21, a22 = (draw(unit_entry) for _ in range(4))
    d11, d22 = abs(draw(nonzero_entry)), abs(draw(unit_entry))
    rho = draw(st.sampled_from((0.0, 1.0, -1.0, 0.5, -0.3)))
    shape = draw(st.sampled_from(("any", "family", "trace_zero")))
    if shape != "any":
        a22 = -a11
    if shape == "family":  # the right-hand side -a21 d11 + 2 a11 d12 + a12 d22 vanishes too
        a12, d22, rho = a21, d11, 0.0
    d = DiffusionParams(d11, rho * math.sqrt(d11) * math.sqrt(d22), d22)
    a = Matrix2(a11, a12, a21, a22)
    sol = solve_gyration(a, d)
    q_star = 0.0 if sol.q is None else sol.q
    q = draw(st.sampled_from((None, q_star, q_star + 1e-9, q_star * (1.0 + 1e-12), 0.0, "drawn")))
    if q == "drawn":
        q = draw(unit_entry)
    return a, d, q


@settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(unit_requests(), st.integers(-990, 1000), st.integers(-990, 1000), st.sampled_from(("json", "csv")))
def test_one_judge_at_every_power_of_two_scale(request, j, k, fmt):
    unit_a, unit_d, unit_q = request
    a = unit_a.scaled(2.0 ** j)
    d = DiffusionParams(*(math.ldexp(v, k) for v in (unit_d.d11, unit_d.d12, unit_d.d22)))
    q = None if unit_q is None else math.ldexp(unit_q, k)
    sol = solve_gyration(a, d)
    assert sol.branch == solve_gyration(unit_a, unit_d).branch
    # every q that solve_gyration returns is accepted
    if sol.q is not None:
        assert _verdict(a, d, sol.q) == "accepted", (a, d, sol)
    argv = ["decompose", "--matrix", ",".join(map(repr, (a.a11, a.a12, a.a21, a.a22))),
            "--d", ",".join(map(repr, (d.d11, d.d12, d.d22))), "--format", fmt]
    code, out, err = _cli(argv + ([] if q is None else ["--q", repr(q)]))
    if q is not None and sol.branch != INCONSISTENT:
        # the library and the CLI give the same verdict, and the scaled copy its unit copy's
        verdict = _verdict(a, d, q)
        assert verdict == _verdict(unit_a, unit_d, unit_q)
        assert (code == 1 and "violates the gyration constraint" in err) == (verdict == "violates"), (argv, err)
    # a strict document, exit 2, or exit 1 with a message of the program's own
    assert code in (0, 1, 2), (argv, err)
    if code == 0:
        assert err == ""
        if fmt == "json":
            json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {argv}"))
        else:
            assert not {"inf", "-inf", "nan"} & {c for line in out.splitlines() for c in line.split(",")[1].split(";")}
        return
    assert out == "" and err.startswith("aodecomp: ")
    for text in ("Point2", "Matrix2", "math range error", "JSON"):
        assert text not in err, (argv, err)
