"""Zero verdicts and the singular split at their boundary, where ``<=`` and ``<`` differ.

A zero verdict is ``|value| <= tol``, inclusive, so at ``zero_tol=0`` (or
``AODECOMP_TOL=0``) it is exact: a quantity that is exactly 0.0 (or -0.0)
is conservative, and every other one is not. Two inputs reach that
boundary exactly:

- ``center_conservative``: div f = H_P = 0.0 at every point, so both
  verdicts are conservative and they agree;
- the oscillator on its cycle, at (+-1, 0) and (0, +-1): H_P = r^2 (1 - r^2)^2
  is 0.0 or -0.0, and div f = 2 (1 - 2 r^2) = -2.0. Power says conservative,
  divergence says dissipative, and the two disagree: the paper's puzzle in
  one row.

The pointwise split is singular where s^2 + t^2 <= SINGULAR_SPLIT_TOL,
inclusive too. For x' = -x with D = [[d, 300], [300, d]], the gyration is 0
and the potential matrix is D^-1, so at (1, 0) s = d / det D and
t = 300 / det D; at d = 10000000000.000013 the computed s^2 + t^2 is
exactly 1e-20. No single s has s * s == 1e-20, so t must be nonzero.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from aodecomp import get
from aodecomp.cli import main
from aodecomp.dissipation import CONSERVATIVE, DISSIPATIVE, VERDICTS, report_many
from aodecomp.tolerances import SINGULAR_SPLIT_TOL

CYCLE = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
# each system's points, and its verdict_power, verdict_divergence and agree there at tol = 0
EXACT = {
    "center_conservative": (CYCLE + [(0.5, 0.25), (-2.0, 1.5)], CONSERVATIVE, CONSERVATIVE, True),
    "hopf_limit_cycle": (CYCLE, CONSERVATIVE, DISSIPATIVE, False),
}
SPLIT_EDGE = ["decompose", "--matrix", "-1,0,0,-1", "--d", "10000000000.000013,300,10000000000.000013", "--at", "1,0"]


@pytest.mark.parametrize("name", EXACT)
def test_report_many_verdicts_are_exact_at_zero_tol(name):
    points, power, divergence, agree = EXACT[name]
    x1, x2 = (np.array(column) for column in zip(*points))
    rep = report_many(get(name).system, x1, x2, zero_tol=0.0)
    assert np.all(rep.h_p == 0.0)
    assert np.all(rep.div_f == (0.0 if divergence == CONSERVATIVE else -2.0))
    assert [VERDICTS[code] for code in rep.verdict_power] == [power] * len(points)
    assert [VERDICTS[code] for code in rep.verdict_divergence] == [divergence] * len(points)
    assert rep.agree.tolist() == [agree] * len(points)


@pytest.mark.parametrize("name", EXACT)
def test_report_cli_verdicts_are_exact_at_zero_tol(name, capsys, monkeypatch):
    points, power, divergence, agree = EXACT[name]
    monkeypatch.setenv("AODECOMP_TOL", "0")
    argv = ["report", "--system", name]
    for x1, x2 in points:
        argv += ["--at", f"{x1!r},{x2!r}"]
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["zero_tol"] == 0.0
    assert [(p["verdict_power"], p["verdict_divergence"], p["agree"]) for p in doc["points"]] == [
        (power, divergence, agree)
    ] * len(points)
    assert doc["summary"]["disagreements"] == (0 if agree else len(points))
    assert main(argv + ["--format", "csv"]) == 0
    rows = [row.split(",")[6:] for row in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [[power, divergence, json.dumps(agree)]] * len(points)


def test_split_is_singular_at_its_boundary(capsys):
    assert main(SPLIT_EDGE) == 0
    doc = json.loads(capsys.readouterr().out)
    s, t = doc["friction"], doc["transverse"]
    assert s * s + t * t == SINGULAR_SPLIT_TOL
    assert (doc["diffusion"], doc["gyration"], doc["singular_on_isopotential"]) == (None, None, True)
    assert main(SPLIT_EDGE + ["--format", "csv"]) == 0
    cells = dict(row.split(",", 1) for row in capsys.readouterr().out.splitlines()[1:])
    assert (cells["diffusion"], cells["gyration"], cells["singular_on_isopotential"]) == ("", "", "true")
