"""The stepper's folded linear stages: their text, and simulate's bytes with and without the fold.

``dynamics._loop`` inlines a linear stage with no multiply by 0 or +-1. The
field's ``fn`` keeps the full stage, so only the stepper's states may differ,
and only in the sign of a zero, which simulate's CSV folds.
"""

from __future__ import annotations

import pytest

from aodecomp import Matrix2, Point2, SystemSpec, dynamics, get, integrate, list_systems
from aodecomp.catalog import HOPF_POLAR
from aodecomp.cli import main
from helpers import plain_rk4

FOLDED = {
    "stable_node": "f1, f2 = -x1, (-2.0) * x2",
    "saddle_tracezero": "f1, f2 = x1, -x2",
    "repeated_diagonal": "f1, f2 = -x1, -x2",
    "zero_matrix": "f1, f2 = 0.0, 0.0",
    "defective": "f1, f2 = -x1, x1 - x2",
    "defective_nilpotent": "f1, f2 = 0.0, x1",
    "stable_spiral": "f1, f2 = (-0.5) * x1 + x2, -x1 + (-0.5) * x2",
    "center_conservative": "f1, f2 = x2, -x1",
}


def test_linear_catalog_stages_fold_to_these_texts():
    assert set(list_systems()) == {*FOLDED, "hopf_limit_cycle"}
    for name, text in FOLDED.items():
        assert dynamics._folded(get(name).system.field.stage) == text


@pytest.mark.parametrize(
    "stage",
    [
        get("hopf_limit_cycle").system.field.stage,
        HOPF_POLAR.field.stage,
        dynamics._CALL_FN,
        # near misses of the linear form: terms out of order, a product, a temporary, a third coordinate,
        # a three-way split
        "f1, f2 = (1.0) * x2 + (0.0) * x1, (0.0) * x1 + (1.0) * x2",
        "f1, f2 = (1.0) * x1 * x2, (0.0) * x2",
        "_s = (0.0) * x1\nf1, f2 = _s, (1.0) * x2",
        "f1, f2 = (1.0) * x3, (0.0) * x1",
        "f1, f2, _t = (1.0) * x1, (0.0) * x2, (1.0) * x1",
    ],
    ids=["hopf", "polar", "no_stage", "reordered", "product", "temporary", "x3", "three"],
)
def test_other_stages_are_inlined_unchanged(stage):
    assert dynamics._folded(stage) == stage


@pytest.fixture
def fresh_loops():
    """No compiled loop before or after the test, so neither side reuses the other's."""
    dynamics._loop.cache_clear()
    yield
    dynamics._loop.cache_clear()


def _simulate(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


RUNS = [
    ["simulate", "--system", name, f"--x0={x0}"]
    for name in FOLDED for x0 in ("0,1", "-0.0,1", "1,-0.0", "-0.0,-0.0")
] + [["simulate", "--system", "saddle_tracezero", "--x0", "1,0.5", "--dt", "0.1", "--t-end", "30"]]


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_simulate_writes_the_same_bytes_with_and_without_the_fold(argv, capsys, monkeypatch, fresh_loops):
    folded = _simulate(capsys, argv)
    monkeypatch.setattr(dynamics, "_folded", lambda stage: stage)
    dynamics._loop.cache_clear()
    assert _simulate(capsys, argv) == folded
    assert folded[0] == (3 if "--dt" in argv else 0)


def test_the_fold_continues_a_step_whose_unread_coordinate_overflows():
    # x1 feeds no output, and its first midpoint overflows at dt = 2**1022. Here
    # lam * dt is where RK4's growth factor is 1 (about -2.785), and the slopes
    # of x1 cancel exactly in float64, so the step maps (0, 3) to itself, as
    # exact RK4 does; the full stage's (0.0) * inf is NaN and ends the run. No
    # catalog system has a coordinate that no output reads and slopes that can cancel.
    a = Matrix2(0.0, 1.0, 0.0, -6.197483896201463e-308)
    system = SystemSpec.linear("unread_x1", a)
    assert dynamics._folded(system.field.stage) == "f1, f2 = x2, (-6.197483896201463e-308) * x2"
    dt = 2.0**1022
    assert integrate(system, Point2(0.0, 3.0), dt=dt, t_end=dt).x.tolist() == [[0.0, 3.0], [0.0, 3.0]]
    states, failure = plain_rk4(system.field.fn, Point2(0.0, 3.0), dt, dt, system.name)
    assert states.tolist() == [[0.0, 3.0]]
    assert failure == f"state blew up at t={dt!r} integrating 'unread_x1'"
