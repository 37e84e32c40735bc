"""The stepper's folded linear stages: their text, and simulate's bytes with and without the fold.

``SystemSpec.linear`` marks its ``fn`` with a stage that has no multiply by 0
or +-1, and ``dynamics._loop`` inlines every stage as given. The ``fn`` keeps
the full stage, so only the stepper's states may differ, and only in the sign
of a zero, which simulate's CSV folds.
"""

from __future__ import annotations

import textwrap

import pytest

from aodecomp import Matrix2, Point2, SystemSpec, VectorField, dynamics, get, integrate, list_systems
from aodecomp.catalog import HOPF_POLAR
from aodecomp.cli import main
from aodecomp.core import define
from aodecomp.errors import NonFinite
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
        assert get(name).system.field.stage == text
        assert VectorField.from_stage(text).stage == text  # passes from_stage's name check


@pytest.fixture
def fresh_loops():
    """No compiled loop before or after the test, so neither side reuses the other's."""
    dynamics._loop.cache_clear()
    yield
    dynamics._loop.cache_clear()


@pytest.mark.parametrize(
    "stage",
    [
        get("hopf_limit_cycle").system.field.stage,
        HOPF_POLAR.field.stage,
        dynamics._CALL_FN,
        # hand-written stages, the full linear form among them: none is folded
        "f1, f2 = (0.0) * x1 + (1.0) * x2, (-0.0) * x1 + (-1.0) * x2",
        "f1, f2 = (1.0) * x2 + (0.0) * x1, (0.0) * x1 + (1.0) * x2",
        "f1, f2 = (1.0) * x1 * x2, (0.0) * x2",
        "_s = (0.0) * x1\nf1, f2 = _s, (1.0) * x2",
        "f1, f2, _t = (1.0) * x1, (0.0) * x2, (1.0) * x1",
    ],
    ids=["hopf", "polar", "no_stage", "full_linear", "reordered", "product", "temporary", "three"],
)
def test_a_stage_is_inlined_as_given(stage, monkeypatch, fresh_loops):
    sources = []
    monkeypatch.setattr(dynamics, "define", lambda source, *args: sources.append(source) or define(source, *args))
    dynamics._loop(stage)
    assert sources[0].count(textwrap.indent(stage, " " * 12) + "\n") == 4


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
    # no stage: the loop calls the full fn
    monkeypatch.setattr(get(argv[2]).system.field.fn, "stage", None)
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
    assert system.field.stage == "f1, f2 = x2, (-6.197483896201463e-308) * x2"
    dt = 2.0**1022
    assert integrate(system, Point2(0.0, 3.0), dt=dt, t_end=dt).x.tolist() == [[0.0, 3.0], [0.0, 3.0]]
    states, failure = plain_rk4(system.field.fn, Point2(0.0, 3.0), dt, dt, system.name)
    assert states.tolist() == [[0.0, 3.0]]
    assert failure == f"state blew up at t={dt!r} integrating 'unread_x1'"


def test_a_hand_written_linear_stage_is_stepped_as_written():
    # the same A as above, written out in full: its (0.0) * x1 meets the overflowed
    # midpoint, so the run ends at the first step, as plain RK4 on fn does
    field = VectorField.from_stage("f1, f2 = (0.0) * x1 + (1.0) * x2, (0.0) * x1 + (-6.197483896201463e-308) * x2")
    system = SystemSpec("unread_x1", field)
    dt = 2.0**1022
    with pytest.raises(NonFinite) as info:
        integrate(system, Point2(0.0, 3.0), dt=dt, t_end=dt)
    states, failure = plain_rk4(field.fn, Point2(0.0, 3.0), dt, dt, system.name)
    assert info.value.trajectory.x.tolist() == states.tolist() == [[0.0, 3.0]]
    assert str(info.value) == failure == f"state blew up at t={dt!r} integrating 'unread_x1'"
