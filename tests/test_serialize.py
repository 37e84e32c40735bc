"""The serializer against the plain formatting it replaces, byte for byte.

``_float_cells`` formats each distinct value of a document once, into
NUL-padded byte rows; read back as strings they must be exactly ``repr`` of
every value. ``_emit_csv`` lays float, ``S`` and string columns out as
bytes; it must give exactly the CSV written cell by cell with ``repr`` and
``str``. ``_report_json`` renders report documents from columns; it must give
exactly what ``json.dumps(indent=2)`` writes for the same document built as
a dict, including ``-0.0``.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aodecomp import cli, floatfmt, get, list_systems
from aodecomp.cli import _BLOCK_ROWS, _BOOL_CELLS, _VERDICT_CELLS, _emit_csv, _grid_points, _parse_grid, _report_json, main
from aodecomp.cli import _float_cells as float_rows
from aodecomp.dissipation import VERDICTS, report_many
from helpers import row_texts

SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1.0]


def reference_cells(block: np.ndarray) -> list[str]:
    return list(map(repr, block.tolist()))


def _float_cells(columns: list[np.ndarray], fold_negative_zero: bool = False) -> list[list[str]]:
    return [row_texts(rows) for rows in float_rows(columns, fold_negative_zero)]


def reference_csv(header: list[str], columns: list) -> str:
    """CSV written cell by cell: repr of a float (with -0.0 folded), a decoded bytes cell, or the string."""
    def cells(column):
        if isinstance(column, np.ndarray) and column.dtype.kind == "f":
            return reference_cells(column + 0.0)
        if isinstance(column, np.ndarray):
            return [cell.decode() for cell in column.tolist()]
        return list(column)

    rows = zip(*map(cells, columns))
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


@pytest.mark.parametrize("n", [5, 3 * _BLOCK_ROWS])
def test_float_cells_fold_negative_zero_on_request_only(n):
    # both zeros in one column stay distinct values and both print 0.0; the column itself is not changed
    rng = np.random.default_rng(n)
    column = rng.choice(np.array([-0.0, 0.0, -1.5, 2.25]), n)
    column[:2] = [-0.0, 0.0]
    unique = np.concatenate([[-0.0], rng.standard_normal(n - 1)])
    before = column.view(np.int64).copy()
    assert _float_cells([column, unique], True) == [reference_cells(column + 0.0), reference_cells(unique + 0.0)]
    assert _float_cells([column, unique], False) == [reference_cells(column), reference_cells(unique)]
    assert np.array_equal(column.view(np.int64), before)


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


TEXT_CELLS = ["", "plain", '"quoted, with commas"', "Lyapunov–Ao φ", "a"]


@pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 2 * 2048 + 3])
def test_emit_csv_matches_repr_across_block_edges(n, capsys):
    assert _BLOCK_ROWS == 2048
    rng = np.random.default_rng(n)
    distinct = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    repeats = rng.choice(np.array(SPECIAL), size=n)
    constant = np.full(n, -0.0)
    verdicts = _VERDICT_CELLS[rng.integers(0, len(VERDICTS), n)]
    agree = _BOOL_CELLS[rng.integers(0, 2, n)]
    empty = np.zeros(n, dtype="S1")
    text = [TEXT_CELLS[i] for i in rng.integers(0, len(TEXT_CELLS), n)]
    header = ["distinct", "repeats", "verdict", "text", "agree", "empty", "constant"]
    columns = [distinct, repeats, verdicts, text, agree, empty, constant]
    _emit_csv(header, columns, None, trailer="# end")
    out = capsys.readouterr().out
    assert_same_text(out, reference_csv(header, columns) + "# end\n")
    assert out.endswith(",,0.0\n# end\n")


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out_file"])
@pytest.mark.parametrize("cells", [["a", "b\0c"], ["\0"], ["x\0"]])
def test_emit_csv_rejects_a_nul_cell(cells, to_file, capsys, tmp_path):
    # every cell is converted before the output is opened: an --out file keeps its bytes
    out = tmp_path / "doc.csv"
    out.write_bytes(b"earlier,bytes\n")
    with pytest.raises(ValueError, match="NUL"):
        _emit_csv(["key", "value"], [["k"] * len(cells), cells], str(out) if to_file else None)
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == b"earlier,bytes\n"


POTENTIAL_SYSTEMS = [name for name in list_systems() if get(name).system.potential is not None]
AT = ["-0.0,-0.0", "0.0,-0.0", "1,0", "1,0", "0.5,0.25", "-0.0,-0.0", "1e-300,-2.5"]


GRID = "-2,2,-1.5,1.5,41,57"


def _report_points() -> tuple[np.ndarray, np.ndarray]:
    """The --at points, then the points of GRID."""
    at = np.array([[float(v) for v in text.split(",")] for text in AT])
    grid_x1, grid_x2 = _grid_points([_parse_grid(GRID)])
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
    columns = [
        x1, x2, rep.h_p, rep.div_f, rep.phi_rate, rep.identity_gap, _VERDICT_CELLS.take(rep.verdict_power),
        _VERDICT_CELLS.take(rep.verdict_divergence), _BOOL_CELLS.take(rep.agree.view(np.int8)),
    ]
    text = b"".join(_report_json(name, 1e-9, columns, len(x1) - int(np.count_nonzero(rep.agree)))).decode()
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


@pytest.mark.parametrize("name", POTENTIAL_SYSTEMS)
def test_report_csv_and_json_carry_the_same_cells(name, capsys, monkeypatch):
    # both formats render one column list: same rows, same floats (CSV folds -0.0), same verdicts and flags
    monkeypatch.delenv("AODECOMP_TOL", raising=False)
    argv = ["report", "--system", name, "--at", "-0.0,-0.0", "--at", "0.5,0.25", "--grid", GRID, "--format"]
    assert main(argv + ["csv"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    assert main(argv + ["json"]) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    assert len(rows) == len(points) == 2 + len(_grid_points([_parse_grid(GRID)])[0]) > _BLOCK_ROWS
    assert points[0]["at"] == [-0.0, -0.0] and str(points[0]["at"]) == "[-0.0, -0.0]"
    assert rows[0][:2] == ["0.0", "0.0"]
    for row, p in zip(rows, points):
        floats = [*p["at"], p["h_p"], p["div_f"], p["phi_rate"], p["identity_gap"]]
        assert row[:6] == [repr(value + 0.0) for value in floats]
        assert row[6:] == [p["verdict_power"], p["verdict_divergence"], json.dumps(p["agree"])]


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


def _distinct_bits(columns) -> list[int]:
    """The distinct bit patterns of each column, over all columns: what one formatter call gets."""
    return sorted(np.concatenate([np.unique(np.array(c, dtype=np.float64).view(np.int64)) for c in columns]).tolist())


def _csv_columns(text: str) -> list[list[float]]:
    return [list(map(float, column)) for column in zip(*(row.split(",") for row in text.splitlines()[1:]))]


def _report_columns(text: str) -> list[list[float]]:
    points = json.loads(text)["points"]
    keys = ("h_p", "div_f", "phi_rate", "identity_gap")
    return [[p["at"][0] for p in points], [p["at"][1] for p in points]] + [[p[k] for p in points] for k in keys]


@pytest.mark.parametrize(
    "argv, columns_of, rows",
    [
        (["grid", "--system", "hopf_limit_cycle", "--grid", "-2,2,-2,2,100,100", "--quantity", "potential"],
         _csv_columns, 100 * 100),
        (["report", "--system", "hopf_limit_cycle", "--grid", "-2,2,-1.5,1.5,70,70", "--format", "json"],
         _report_columns, 70 * 70),
        (["simulate", "--system", "hopf_limit_cycle", "--x0", "0.3,0.1", "--dt", "0.002", "--t-end", "10"],
         _csv_columns, 5001),
    ],
    ids=["grid", "report_json", "simulate"],
)
def test_a_document_formats_its_floats_in_one_call(argv, columns_of, rows, capsys, monkeypatch):
    # every distinct value of a multi-block document goes to one formatter call
    calls = []
    original = floatfmt.repr_many

    def counted(values):
        calls.append(values.view(np.int64).tolist())
        return original(values)

    monkeypatch.setattr(floatfmt, "repr_many", counted)
    monkeypatch.delenv("AODECOMP_TOL", raising=False)
    assert main(argv) == 0
    columns = columns_of(capsys.readouterr().out)
    assert len(columns[0]) == rows > 2 * _BLOCK_ROWS
    assert len(calls) == 1
    assert sorted(calls[0]) == _distinct_bits(columns)


# grids whose coordinates are not plain distinct values, with --at points for report
FACTORED_CASES = {
    # the x axis repeats 1.0 and 1.0000000000000002; 300 axis values take the numpy formatter
    "degenerate_span": ("1,1.0000000000000002,-1,1,300,4", ["1,1", "1.0000000000000002,-1"]),
    "negative_zero_bound": ("-0.0,1,-1,-0.0,9,6", ["-0.0,-0.0", "0.0,-0.0"]),
    # --at points on grid coordinates, and -0.0 next to the grid's 0.0
    "at_on_grid": ("-1,1,-1,1,5,5", ["0.5,-0.5", "-1,1", "0.0,0.0", "-0.0,-0.0"]),
    "large": ("-0.0,2,-1.5,-0.0,150,120", ["-0.0,-0.0", "2,-1.5"]),
}


@pytest.mark.parametrize("grid, at", FACTORED_CASES.values(), ids=FACTORED_CASES)
def test_factored_coordinates_render_as_the_dense_columns(grid, at, capsys, monkeypatch):
    # every document with grid coordinates gives the same bytes from factored and from dense columns
    monkeypatch.delenv("AODECOMP_TOL", raising=False)
    at_argv = [arg for text in at for arg in ("--at", text)]
    argvs = [
        ["grid", "--system", "hopf_limit_cycle", "--grid", grid, "--quantity", "potential"],
        ["grid", "--system", "hopf_limit_cycle", "--grid", grid, "--quantity", "vector_field"],
        ["report", "--system", "hopf_limit_cycle", *at_argv, "--grid", grid, "--format", "csv"],
        ["report", "--system", "hopf_limit_cycle", *at_argv, "--grid", grid, "--format", "json"],
    ]

    def outputs() -> list[str]:
        texts = []
        for argv in argvs:
            assert main(argv) == 0
            texts.append(capsys.readouterr().out)
        return texts

    factored = outputs()
    monkeypatch.setattr(cli, "_factored_points", lambda axes: list(_grid_points(axes)))
    for text, expected in zip(factored, outputs()):
        assert_same_text(text, expected)
    csv_row, point = factored[2].splitlines()[1], json.loads(factored[3])["points"][0]
    if at[0] == "-0.0,-0.0":  # CSV folds -0.0; report JSON keeps it
        assert csv_row.startswith("0.0,0.0,")
        assert str(point["at"]) == "[-0.0, -0.0]"


def test_grid_formats_its_axes_and_the_distinct_values(capsys, monkeypatch):
    # the coordinates reach the formatter as the axes, a repeated axis value
    # twice; only the value column is reduced to its distinct values
    calls = []
    original = floatfmt.repr_many

    def captured(values):
        calls.append(values.copy())
        return original(values)

    monkeypatch.setattr(floatfmt, "repr_many", captured)
    grid = "1,1.0000000000000002,-2,2,300,70"
    assert main(["grid", "--system", "hopf_limit_cycle", "--grid", grid, "--quantity", "potential"]) == 0
    capsys.readouterr()
    xs, ys = _parse_grid(grid)
    value = get("hopf_limit_cycle").system.potential.evaluate_many(*_grid_points([(xs, ys)]))
    assert len(np.unique(xs)) == 2
    assert len(calls) == 1
    assert len(calls[0]) == 300 + 70 + len(np.unique(value.view(np.int64)))
    assert calls[0][:370].tolist() == [*xs.tolist(), *ys.tolist()]


def test_emit_csv_peak_memory_stays_within_a_few_times_its_output(tmp_path):
    # the peak is the formatted rows (24 bytes a cell) and the formatter's
    # work space, about 2.6x the output of this document
    rng = np.random.default_rng(20)
    n = 20_000
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n) for _ in range(7)]
    header = [f"c{i}" for i in range(7)]
    out = tmp_path / "doc.csv"
    _emit_csv(header, columns, str(out))  # loads floatfmt's tables outside the trace
    tracemalloc.start()
    try:
        _emit_csv(header, columns, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * out.stat().st_size


def test_report_json_peak_memory_stays_below_its_output(tmp_path, monkeypatch):
    # a report is written a block at a time and never joined: the traced peak
    # of this 40,000-point report is 0.88x the 13.1 MB file it writes, against
    # 2.25x when the document was joined, then encoded, whole. One block's
    # buffers on top of the formatted cells set a floor of about 5 MB, so a
    # document of a few MB can peak above its size.
    monkeypatch.delenv("AODECOMP_TOL", raising=False)
    out = tmp_path / "report.json"
    argv = ["report", "--system", "hopf_limit_cycle", "--grid", "-2,2,-2,2,200,200", "--format", "json"]
    argv += ["--out", str(out)]
    assert main(argv) == 0  # loads floatfmt's tables outside the trace
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 10**7
    assert peak < out.stat().st_size
