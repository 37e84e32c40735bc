"""The serializer against the plain formatting it replaces, byte for byte.

``_float_cells`` formats each distinct value of a block once; it must give
exactly ``repr`` of every value. ``_report_json`` renders report documents
from columns; it must give exactly what ``json.dumps(indent=2)`` writes for
the same document built as a dict, including ``-0.0``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aodecomp import get, list_systems
from aodecomp.cli import _BLOCK_ROWS, _emit_csv, _float_cells, _parse_grid, _report_json, main
from aodecomp.dissipation import VERDICTS, report_many

SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1.0]


def reference_cells(block: np.ndarray) -> list[str]:
    return list(map(repr, block.tolist()))


def reference_csv(header: list[str], columns: list[np.ndarray]) -> str:
    rows = zip(*(reference_cells(column + 0.0) for column in columns))
    return ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in rows)


def assert_same_text(text: str, expected: str) -> None:
    """Equal texts; a mismatch names the first differing line instead of diffing megabytes."""
    if text != expected:
        got, want = text.splitlines(), expected.splitlines()
        i = next((k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), min(len(got), len(want)))
        pytest.fail(f"line {i + 1} differs: {got[i:i + 1]!r} != {want[i:i + 1]!r} ({len(got)} vs {len(want)} lines)")


def reference_report(name, tol, x1, x2, rep) -> str:
    """The report document as a dict, dumped the way the CLI once wrote it."""
    points = [
        {
            "at": [a, b],
            "h_p": h_p,
            "div_f": div_f,
            "phi_rate": rate,
            "identity_gap": gap,
            "verdict_power": VERDICTS[power],
            "verdict_divergence": VERDICTS[divergence],
            "agree": agree,
        }
        for a, b, h_p, div_f, rate, gap, power, divergence, agree in zip(
            x1.tolist(), x2.tolist(), rep.h_p.tolist(), rep.div_f.tolist(), rep.phi_rate.tolist(),
            rep.identity_gap.tolist(), rep.verdict_power.tolist(), rep.verdict_divergence.tolist(),
            rep.agree.tolist(),
        )
    ]
    doc = {
        "kind": "dissipation_report",
        "system": name,
        "zero_tol": tol,
        "points": points,
        "summary": {"points": len(points), "disagreements": len(points) - int(np.count_nonzero(rep.agree))},
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def test_float_cells_special_values_in_one_block():
    block = np.array(SPECIAL * 3)
    assert _float_cells([block])[0] == reference_cells(block)
    assert _float_cells([block])[0][:2] == ["0.0", "-0.0"]


def test_float_cells_heavy_repeats():
    rng = np.random.default_rng(5)
    block = rng.choice(np.array(SPECIAL), size=3 * _BLOCK_ROWS)
    assert _float_cells([block])[0] == reference_cells(block)
    grid = np.tile(np.linspace(-2.0, 2.0, 37), 61)
    assert _float_cells([grid])[0] == reference_cells(grid)


def test_float_cells_keeps_a_broadcast_negative_zero():
    block = np.broadcast_to(np.asarray(-0.0), (5,))
    assert _float_cells([block])[0] == ["-0.0"] * 5


@settings(max_examples=300, deadline=None)
@given(
    arrays(np.float64, st.integers(1, 300), elements=st.floats(allow_nan=True, allow_infinity=True)),
    st.integers(1, 8),
)
def test_float_cells_match_repr_on_random_columns(block, pool):
    assert _float_cells([block])[0] == reference_cells(block)
    # the same values with many repeats
    repeated = block[np.arange(len(block)) % pool]
    assert _float_cells([repeated])[0] == reference_cells(repeated)


@pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 2 * 2048 + 3])
def test_emit_csv_matches_repr_across_block_edges(n, capsys):
    assert _BLOCK_ROWS == 2048
    rng = np.random.default_rng(n)
    distinct = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    repeats = rng.choice(np.array(SPECIAL), size=n)
    constant = np.full(n, -0.0)
    header = ["distinct", "repeats", "constant"]
    _emit_csv(header, [distinct, repeats, constant], None)
    out = capsys.readouterr().out
    assert_same_text(out, reference_csv(header, [distinct, repeats, constant]))
    assert out.endswith(",0.0\n")


POTENTIAL_SYSTEMS = [name for name in list_systems() if get(name).system.potential is not None]
AT = ["-0.0,-0.0", "0.0,-0.0", "1,0", "1,0", "0.5,0.25", "-0.0,-0.0", "1e-300,-2.5"]


GRID = "-2,2,-1.5,1.5,41,57"


def _report_points() -> tuple[np.ndarray, np.ndarray]:
    """The --at points, then the points of GRID."""
    at = np.array([[float(v) for v in text.split(",")] for text in AT])
    grid_x1, grid_x2 = _parse_grid(GRID)
    return np.concatenate((at[:, 0], grid_x1)), np.concatenate((at[:, 1], grid_x2))


def test_every_potential_system_is_covered():
    assert len(POTENTIAL_SYSTEMS) >= 5
    assert "hopf_limit_cycle" in POTENTIAL_SYSTEMS


@pytest.mark.parametrize("name", POTENTIAL_SYSTEMS)
def test_report_json_matches_json_dumps(name):
    system = get(name).system
    x1, x2 = _report_points()
    assert len(x1) > _BLOCK_ROWS
    rep = report_many(system, x1, x2, zero_tol=1e-9)
    text = _report_json(name, 1e-9, x1, x2, rep)
    assert_same_text(text, reference_report(name, 1e-9, x1, x2, rep))
    assert '"at": [\n        -0.0,\n        -0.0\n      ]' in text


@pytest.mark.parametrize("name", POTENTIAL_SYSTEMS)
def test_report_cli_json_matches_json_dumps(name, capsys, monkeypatch):
    monkeypatch.delenv("AODECOMP_TOL", raising=False)
    argv = ["report", "--system", name]
    for text in AT:
        argv += ["--at", text]
    argv += ["--grid", GRID, "--format", "json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    x1, x2 = _report_points()
    doc = json.loads(out)
    assert [p["at"] for p in doc["points"]] == [[a, b] for a, b in zip(x1.tolist(), x2.tolist())]
    assert_same_text(out, reference_report(name, doc["zero_tol"], x1, x2, report_many(get(name).system, x1, x2)))


def test_report_with_non_finite_power_exits_1_without_output(capsys, monkeypatch):
    monkeypatch.delenv("AODECOMP_TOL", raising=False)
    code = main([
        "report", "--system", "stable_node", "--grid", "-1e200,1e200,-1e200,1e200,7,5", "--format", "json",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "aodecomp: the dissipation power of 'stable_node' overflows float64 at --grid -1e200,1e200,-1e200,1e200,7,5\n"
    )
