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
matrix, and the ``--q`` check (linear in q and D together) are relative to
the matrix, so a small D, S or q gets the verdict of its scaled copy.
"""

from __future__ import annotations

import json
import math

import pytest

import numpy as np

from aodecomp import AsymmetricU, DiffusionParams, Matrix2, NotPSD, SystemSpec, assemble_decomposition
from aodecomp.cli import main
from aodecomp.dissipation import VERDICTS, report_many

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
    for factor in (1.0, 1e7):
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
