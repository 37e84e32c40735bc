"""The linear construction's zero tests scale with the matrix.

Each zero test of ``classify_spectrum``, ``solve_gyration``,
``assemble_decomposition`` and the ``--q`` check is relative to max|A| (and
max|D| or max|U| where those enter). A drift matrix scaled by a positive
factor has the same spectral kind, the same gyration branch and q, and the
same ``--q`` verdict; its eigenvalues scale by the factor. With an absolute
floor such as ``1 + max|A|``, a small A reads as a repeated eigenvalue, a
zero trace, or a satisfied constraint, where its large copy reads right.
"""

from __future__ import annotations

import json
import math

import pytest

from aodecomp import AsymmetricU, DiffusionParams, Matrix2, assemble_decomposition
from aodecomp.cli import main

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

