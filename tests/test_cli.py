"""Command-line surface: documents, exit codes, determinism, golden files."""

from __future__ import annotations

import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aodecomp import NotFiniteQuantity, cli, dynamics
from aodecomp.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_matrix_fixture(capsys):
    code, out, _ = run(capsys, "decompose", "--matrix", "-1,0,0,-2", "--d", "1,0.3,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "linear_decomposition"
    assert doc["gyration_branch"] == "unique"
    assert abs(doc["gyration"] - (-0.1)) <= 1e-15
    assert doc["residuals"]["gyration_constraint"] < 1e-10
    assert doc["spectral_class"]["kind"] == "real_distinct"
    assert doc["spectral_class"]["values"] == [-1.0, -2.0]


def test_decompose_pointwise_fixture(capsys):
    code, out, _ = run(capsys, "decompose", "--system", "hopf_limit_cycle", "--at", "0.5,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "point_decomposition"
    assert abs(doc["friction"] - 0.36) <= 1e-15
    assert abs(doc["transverse"] - 0.48) <= 1e-15
    assert abs(doc["diffusion"] - 1.0) <= 1e-12
    assert abs(doc["gyration"] - (-4.0 / 3.0)) <= 1e-12
    assert doc["singular_on_isopotential"] is False


def test_decompose_inconsistent_exits_2(capsys):
    code, out, err = run(capsys, "decompose", "--matrix", "0,1,-1,0", "--d", "1,0,1")
    assert code == 2
    assert out == ""
    assert "d11 = d22 = d12 = 0" in err


def test_decompose_family_branch(capsys):
    code, out, _ = run(capsys, "decompose", "--matrix", "1,0,0,-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["gyration_branch"] == "family"
    assert doc["gyration"] == 1.0
    assert "free parameter" in doc["gyration_note"]


def test_decompose_family_q_override(capsys):
    code, out, _ = run(capsys, "decompose", "--matrix", "1,0,0,-1", "--q", "-2.5")
    assert code == 0
    assert json.loads(out)["gyration"] == -2.5


def test_decompose_invalid_q_override(capsys):
    code, _, err = run(capsys, "decompose", "--matrix", "-1,0,0,-2", "--d", "1,0.3,1", "--q", "0.1")
    assert code == 1
    assert "violates" in err


@pytest.mark.parametrize("q, reason", [("nan", "must be finite"), ("abc", "could not parse"), ("1e400", "must be finite")])
def test_decompose_q_override_names_the_flag_and_value(capsys, q, reason):
    code, out, err = run(capsys, "decompose", "--matrix", "1,0,0,1", "--q", q)
    assert (code, out) == (1, "")
    assert err.startswith("aodecomp: ") and reason in err
    assert "--q" in err and repr(q) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["grid", "--system", "hopf_limit_cycle", "--grid", "0,1,0,1,2,2", "--quantity", "vector_field"],
        ["catalog"],
    ],
    ids=["grid", "catalog"],
)
@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing_dir", "directory"])
def test_unwritable_out_exits_one_naming_the_path(capsys, tmp_path, argv, target):
    out = str(tmp_path / target)
    code, stdout, err = run(capsys, *argv, "--out", out)
    assert (code, stdout) == (1, "")
    assert err.startswith("aodecomp: ") and f"--out {out!r}" in err
    assert "Traceback" not in err


def test_decompose_usage_errors(capsys):
    assert run(capsys, "decompose")[0] == 1
    assert run(capsys, "decompose", "--matrix", "1,2,3")[0] == 1
    assert run(capsys, "decompose", "--matrix", "1,0,0,1", "--d", "-1,0,1")[0] == 1
    assert run(capsys, "decompose", "--system", "nope")[0] == 1
    assert run(capsys, "decompose", "--system", "hopf_limit_cycle")[0] == 1


@pytest.mark.parametrize(
    "flag, value", [("--matrix", "-1,0,0,-2"), ("--d", "1,0.5,1"), ("--q", "0.3")], ids=["matrix", "d", "q"]
)
@pytest.mark.parametrize("at", [[], ["--at", "0.5,0"]], ids=["linear", "pointwise"])
def test_decompose_system_rejects_matrix_flags_naming_the_flag(capsys, flag, value, at):
    # the catalog system fixes its own decomposition, so these flags would be ignored
    code, out, err = run(capsys, "decompose", "--system", "stable_node", flag, value, *at)
    assert (code, out) == (1, "")
    assert err.startswith("aodecomp: ") and flag in err and "Traceback" not in err


def test_decompose_linear_catalog_document(capsys):
    code, out, _ = run(capsys, "decompose", "--system", "saddle_tracezero")
    assert code == 0
    doc = json.loads(out)
    assert doc["friction"] == [[0.5, 0.0], [0.0, 0.5]]
    assert doc["transverse"] == -0.5
    assert doc["potential_matrix"] == [[-0.5, -0.5], [-0.5, 0.5]]
    assert doc["potential_coefficients"] == {"x1^2": -0.25, "x1*x2": -0.5, "x2^2": 0.25}


def test_decompose_csv_format(capsys):
    code, out, _ = run(capsys, "decompose", "--system", "saddle_tracezero", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "gyration" in keys and "residuals.gyration_constraint" in keys


def test_json_documents_round_trip(capsys):
    for argv in (
        ("decompose", "--system", "stable_node"),
        ("report", "--system", "hopf_limit_cycle", "--at", "1,0", "--at", "0.3,-0.2"),
        ("catalog",),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_simulate_golden_zero_system(capsys):
    code, out, _ = run(
        capsys, "simulate", "--system", "zero_matrix", "--x0", "0,0", "--dt", "0.25", "--t-end", "1",
    )
    assert code == 0
    expected = "t,x1,x2,phi,phi_rate,h_p,div_f\n" + "".join(
        f"{t},0.0,0.0,0.0,0.0,0.0,0.0\n" for t in ("0.0", "0.25", "0.5", "0.75", "1.0")
    )
    assert out == expected


def test_simulate_hopf_reaches_cycle(capsys):
    code, out, _ = run(capsys, "simulate", "--system", "hopf_limit_cycle", "--x0", "0.1,0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x1,x2,phi,phi_rate,h_p,div_f"
    assert len(lines) == 10002
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(math.hypot(last[1], last[2]) - 1.0) < 1e-5


def test_simulate_polar_columns(capsys):
    code, out, _ = run(
        capsys, "simulate", "--system", "hopf_limit_cycle", "--x0", "0.1,0",
        "--dt", "0.01", "--t-end", "2", "--polar",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,r,theta"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    for t, _r, theta in rows:
        assert abs(theta - t) <= 1e-9  # theta0 = atan2(0, 0.1) = 0


def test_simulate_polar_rejected_for_linear(capsys):
    code, _, err = run(capsys, "simulate", "--system", "stable_node", "--x0", "1,0", "--polar")
    assert code == 1
    assert "polar" in err


def test_simulate_blowup_exit_3_with_marker(capsys, tmp_path):
    out_path = tmp_path / "boom.csv"
    code, _, err = run(
        capsys, "simulate", "--system", "saddle_tracezero", "--x0", "1,0",
        "--t-end", "40", "--out", str(out_path),
    )
    assert code == 3
    assert "blew up" in err
    text = out_path.read_text()
    assert text.splitlines()[0] == "t,x1,x2,phi,phi_rate,h_p,div_f"
    assert text.splitlines()[-1].startswith("# truncated:")
    # partial rows retained and finite
    last_row = text.splitlines()[-2].split(",")
    assert all(math.isfinite(float(v)) for v in last_row)


def test_report_disagreement_points(capsys):
    code, out, _ = run(
        capsys, "report", "--system", "hopf_limit_cycle",
        "--at", "1,0", "--at", f"{math.sqrt(0.5)!r},0",
    )
    assert code == 0
    doc = json.loads(out)
    p1, p2 = doc["points"]
    assert p1["h_p"] == 0.0 and p1["div_f"] == -2.0 and p1["agree"] is False
    assert abs(p2["h_p"] - 0.125) <= 1e-12 and abs(p2["div_f"]) <= 1e-9
    assert p2["agree"] is False
    assert doc["summary"] == {"points": 2, "disagreements": 2}


def test_report_saddle_point(capsys):
    code, out, _ = run(capsys, "report", "--system", "saddle_tracezero", "--at", "1,0")
    assert code == 0
    point = json.loads(out)["points"][0]
    assert abs(point["h_p"] - 0.5) <= 1e-12
    assert point["div_f"] == 0.0
    assert point["agree"] is False


def test_report_center_grid_all_agree(capsys):
    code, out, _ = run(
        capsys, "report", "--system", "center_conservative", "--grid", "-1,1,-1,1,5,5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["points"] == 25
    assert doc["summary"]["disagreements"] == 0
    assert all(p["verdict_power"] == "conservative" for p in doc["points"])
    assert all(p["verdict_divergence"] == "conservative" for p in doc["points"])


def test_report_requires_points(capsys):
    assert run(capsys, "report", "--system", "hopf_limit_cycle")[0] == 1


def test_report_csv_rows(capsys):
    code, out, _ = run(
        capsys, "report", "--system", "hopf_limit_cycle", "--at", "1,0", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("x1,x2,h_p,div_f")
    cells = lines[1].split(",")
    assert cells[0] == "1.0" and cells[3] == "-2.0"
    assert cells[-1] == "false"


def test_grid_potential_minimum_near_cycle(capsys):
    code, out, _ = run(
        capsys, "grid", "--system", "hopf_limit_cycle",
        "--grid", "-2,2,-2,2,60,60", "--quantity", "potential",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 3601
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert abs(values[:, 2].min() - (-0.25)) <= 5e-3
    # row-major layout: y is the outer loop, x the inner one
    assert values[0, 0] == -2.0 and values[0, 1] == -2.0
    assert values[1, 0] != -2.0 and values[1, 1] == -2.0


def test_grid_divergence_sign_change(capsys):
    code, out, _ = run(
        capsys, "grid", "--system", "hopf_limit_cycle",
        "--grid", "-2,2,-2,2,41,41", "--quantity", "divergence",
    )
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
    for x1, x2, value in rows:
        r2 = x1 * x1 + x2 * x2
        if r2 < 0.45:
            assert value > 0.0
        elif r2 > 0.55:
            assert value < 0.0


def test_grid_vector_field_origin_is_fixed_point(capsys):
    code, out, _ = run(
        capsys, "grid", "--system", "hopf_limit_cycle",
        "--grid", "-1,1,-1,1,3,3", "--quantity", "vector_field",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2,f1,f2"
    center_row = lines[1 + 4]  # middle of a 3x3 grid
    assert center_row == "0.0,0.0,0.0,0.0"


def test_grid_criteria_agreement_values(capsys):
    code, out, _ = run(
        capsys, "grid", "--system", "hopf_limit_cycle",
        "--grid", "0.8,0.9,-0.05,0.05,3,2", "--quantity", "criteria_agreement",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(cells[2] == "1.0" for cells in rows)  # contracting ring agrees


def test_grid_usage_errors(capsys):
    assert run(
        capsys, "grid", "--system", "hopf_limit_cycle", "--grid", "2,-2,-2,2,10,10",
        "--quantity", "potential",
    )[0] == 1
    assert run(
        capsys, "grid", "--system", "hopf_limit_cycle", "--grid", "-2,2,-2,2,1,10",
        "--quantity", "potential",
    )[0] == 1
    assert run(
        capsys, "grid", "--system", "hopf_limit_cycle", "--grid", "-2,2,-2,2,10,10",
        "--quantity", "nope",
    )[0] == 1


def test_grid_quantities_keep_the_readme_order(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    note = readme[readme.index("- Grid quantities: "):]
    assert cli.QUANTITIES == tuple(re.findall(r"`(\w+)`", note[:note.index(".\n")]))
    assert len(cli.QUANTITIES) == 6
    code, out, err = run(capsys, "grid", "--system", "hopf_limit_cycle", "--grid", "0,1,0,1,2,2", "--quantity", "nope")
    assert (code, out) == (1, "")
    assert "(choose from " + ", ".join(map(repr, cli.QUANTITIES)) + ")" in err


@pytest.mark.parametrize("command", [("grid", "--quantity", "potential"), ("report", "--format", "json")])
def test_grid_point_cap_exits_1_before_allocating(capsys, command):
    name, *rest = command
    grid = "0,1,0,1,1000000,1000000"  # 10^12 points: 7.3 TiB per float64 column
    code, out, err = run(capsys, name, "--system", "hopf_limit_cycle", "--grid", grid, *rest)
    assert (code, out) == (1, "")
    assert err == f"aodecomp: --grid {grid} has nx * ny = 1000000000000 points, more than {cli.MAX_GRID_POINTS}\n"


def test_grid_point_cap_boundary():
    assert cli.MAX_GRID_POINTS == 1000 * 1000
    x1, x2 = cli._grid_points([cli._parse_grid("0,1,0,1,1000,1000")])
    assert len(x1) == len(x2) == cli.MAX_GRID_POINTS
    with pytest.raises(cli._UsageError, match="more than 1000000"):
        cli._parse_grid("0,1,0,1,1001,1000")


@pytest.mark.parametrize("dt, t_end", [("1e-300", "1"), ("1e-06", "1.0000001"), ("5e-324", "0.5")])
def test_simulate_step_cap_exits_1_naming_the_flags(capsys, dt, t_end):
    assert dynamics.MAX_STEPS == 1_000_000  # checked first: without the cap these argvs would not end
    code, out, err = run(capsys, "simulate", "--system", "hopf_limit_cycle", "--x0", "0.5,0", "--dt", dt, "--t-end", t_end)
    assert (code, out) == (1, "")
    assert err == (
        f"aodecomp: --t-end {float(t_end)!r} / --dt {float(dt)!r} asks for more than 1000000 steps; "
        "raise --dt or lower --t-end\n"
    )


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    doc = json.loads(out)
    names = [s["name"] for s in doc["systems"]]
    assert len(names) == 9
    assert "hopf_limit_cycle" in names and "center_conservative" in names
    kinds = {s["name"]: s["kind"] for s in doc["systems"]}
    assert kinds["hopf_limit_cycle"] == "analytic"
    assert kinds["stable_node"] == "linear"
    assert all(s["provenance"] for s in doc["systems"])


def test_catalog_csv(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,kind,provenance"
    assert len(lines) == 10


def test_outputs_are_deterministic(capsys):
    argv = ("simulate", "--system", "hopf_limit_cycle", "--x0", "0.5,0", "--dt", "0.01", "--t-end", "2")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


REPORT_AT_AND_GRID = ["--system", "hopf_limit_cycle", "--at", "1,0", "--at", "-0.0,0.5", "--grid", "-2,2,-2,2,50,50"]
OUT_CASES = {
    # 2,502 rows, more than one block of cli._BLOCK_ROWS
    "report_json": ["report", *REPORT_AT_AND_GRID],
    "report_csv": ["report", *REPORT_AT_AND_GRID, "--format", "csv"],
    "grid_csv": ["grid", "--system", "hopf_limit_cycle", "--grid", "-2,2,-2,2,60,60", "--quantity", "vector_field"],
    # 27,633 rows, then the "# truncated" trailer; exits 3
    "simulate_blowup": ["simulate", "--system", "saddle_tracezero", "--x0", "1,0", "--t-end", "40"],
    "decompose_csv": ["decompose", "--matrix", "-1,0,0,-2", "--d", "1,0.3,1", "--format", "csv"],
    "catalog": ["catalog"],
    "catalog_csv": ["catalog", "--format", "csv"],
}


@pytest.mark.parametrize("argv", OUT_CASES.values(), ids=OUT_CASES)
def test_out_file_matches_stdout(argv, capsys, tmp_path, monkeypatch):
    # the blocks written to a file are the bytes of the text written to stdout
    monkeypatch.delenv("AODECOMP_TOL", raising=False)
    code, stdout_text, stdout_err = run(capsys, *argv)
    out_path = tmp_path / "doc.out"
    out_path.write_bytes(b"stale bytes, longer than nothing\n")
    assert run(capsys, *argv, "--out", str(out_path)) == (code, "", stdout_err)
    assert code in (0, 3)
    assert out_path.read_bytes() == stdout_text.encode()
    if argv[0] not in ("catalog", "decompose"):
        assert stdout_text.count("\n") > cli._BLOCK_ROWS


def test_master_tol_env_override(capsys, monkeypatch):
    # a huge zero-tolerance turns every verdict conservative, so the two
    # criteria agree on the half-power circle where they normally disagree
    at = f"{math.sqrt(0.5)!r},0"
    _, out, _ = run(capsys, "report", "--system", "hopf_limit_cycle", "--at", at)
    assert json.loads(out)["points"][0]["agree"] is False
    monkeypatch.setenv("AODECOMP_TOL", "10")
    _, out, _ = run(capsys, "report", "--system", "hopf_limit_cycle", "--at", at)
    doc = json.loads(out)
    assert doc["zero_tol"] == 10.0
    assert doc["points"][0]["agree"] is True


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "decompose", "--help")[0] == 0


def test_a_usage_error_under_a_closed_stderr_prints_nothing(capsys, monkeypatch):
    # with stderr closed (2>&-, which leaves sys.stderr None) argparse's usage text is dropped, not printed on stdout
    monkeypatch.setattr(sys, "stderr", None)
    grid = ["grid", "--system", "hopf_limit_cycle", "--grid", "0,1,0,1,2,2"]
    for argv in (["bogus"], [*grid, "--quantity", "nope"], [*grid]):
        assert main(argv) == 1
        assert capsys.readouterr().out == ""
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: aodecomp ")


def test_help_under_a_closed_stdout_exits_1_with_one_message(capsys, monkeypatch):
    # with stdout closed (>&-, which leaves sys.stdout None) argparse would print the help on stderr and exit 0
    monkeypatch.setattr(sys, "stdout", None)
    for argv in (["--help"], ["catalog", "--help"]):
        assert main(argv) == 1
        assert capsys.readouterr().err == "aodecomp: cannot write to stdout: it is closed\n"


@pytest.mark.parametrize("argv", [["--help"], ["catalog", "--help"]], ids=["help", "catalog_help"])
def test_help_on_a_closed_pipe_exits_1_with_one_message(capsys, monkeypatch, argv):
    # the help is a document like any other: a write that fails is exit 1, not a help lost when the stream closes
    read, write = os.pipe()
    os.close(read)
    stdout = open(write, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(argv)
    stdout.close()  # nothing of the help is left buffered to fail again here
    assert code == 1
    assert capsys.readouterr().err == "aodecomp: cannot write to stdout: Broken pipe\n"


def test_unknown_arguments_exit_one(capsys):
    assert run(capsys, "simulate", "--system", "hopf_limit_cycle", "--x0", "1,0", "--format", "json")[0] == 1
    assert run(capsys)[0] == 1


@pytest.mark.parametrize("flags", [("--t-end", "inf"), ("--dt", "nan"), ("--dt", "1e-300", "--t-end", "1e300")])
def test_simulate_non_finite_time_exits_1(capsys, flags):
    code, out, err = run(capsys, "simulate", "--system", "hopf_limit_cycle", "--x0", "0.5,0", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("aodecomp:")


def test_simulate_polar_blowup_exit_3_with_marker(capsys):
    code, out, err = run(
        capsys, "simulate", "--system", "hopf_limit_cycle", "--x0", "1e6,0", "--t-end", "0.01", "--polar",
    )
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "t,r,theta"
    assert lines[1] == "0.0,1000000.0,0.0"
    assert lines[-1] == "# truncated: state blew up at t=0.001 integrating 'hopf_limit_cycle_polar'"
    assert err == "aodecomp: state blew up at t=0.001 integrating 'hopf_limit_cycle_polar'\n"


@pytest.mark.parametrize("x0", ["0,0", "-0.0,0"])
def test_simulate_polar_rejects_the_origin(capsys, x0):
    code, out, err = run(capsys, "simulate", "--system", "hopf_limit_cycle", "--polar", "--x0", x0)
    assert (code, out) == (1, "")
    assert err == "aodecomp: --polar needs a nonzero initial state\n"


def test_simulate_polar_radius_overflow_exits_1(capsys):
    code, out, err = run(capsys, "simulate", "--system", "hopf_limit_cycle", "--x0", "1.7e308,1.7e308", "--polar")
    assert code == 1
    assert out == ""
    assert err == "aodecomp: the radius of --x0 1.7e308,1.7e308 overflows float64\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_decompose_at_where_frame_products_overflow(capsys, fmt):
    # the field and gradient are finite at 1e200 but f . f and grad(phi) . f overflow
    code, out, err = run(capsys, "decompose", "--system", "stable_node", "--at", "1e200,0", "--format", fmt)
    assert code == 0, err
    assert "nan" not in out and "inf" not in out
    if fmt == "json":
        doc = json.loads(out)
    else:
        doc = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert abs(float(doc["friction"]) - 25.0 / 23.0) <= 1e-15
    assert abs(float(doc["transverse"]) - 10.0 / 23.0) <= 1e-15


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "abc"])
def test_master_tol_rejects_invalid_env_values(capsys, monkeypatch, value):
    monkeypatch.setenv("AODECOMP_TOL", value)
    code, out, err = run(capsys, "report", "--system", "hopf_limit_cycle", "--at", "1,0")
    assert code == 1
    assert out == ""
    assert err.startswith("aodecomp: AODECOMP_TOL must be a finite nonnegative tolerance")


def test_importing_the_cli_loads_no_dataclasses():
    # records replace dataclasses, whose per-class exec cost a one-shot run about 10 ms of
    # start-up; numpy still loads with the cli, as the benchmark's import timing expects
    code = (
        "import sys, aodecomp.cli; aodecomp.cli.catalog.list_systems(); "
        "print(sorted({'dataclasses', 'numpy'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={"PYTHONPATH": str(SRC)}, timeout=60,
        check=True,
    )
    assert proc.stdout == "['numpy']\n"


def _decompose_in_fresh_interpreter(matrix: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "aodecomp.cli", "decompose", "--matrix", matrix],
        capture_output=True, text=True, env={"PYTHONPATH": str(SRC)}, timeout=60, check=False,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--system", "hopf_limit_cycle", "--x0", "0.5,0", "--t-end", "100"],  # 100,001 CSV rows
        ["report", "--system", "hopf_limit_cycle", "--grid", "-2,2,-2,2,100,100"],  # a 3.8 MB JSON document
    ],
    ids=["simulate", "report"],
)
def test_a_reader_that_closes_stdout_early_gets_exit_1_and_one_message(argv):
    # the document is far larger than a 64 kB pipe buffer, so writes go on after the reader has gone
    proc = subprocess.Popen(
        [sys.executable, "-m", "aodecomp.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={"PYTHONPATH": str(SRC)},
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait(timeout=60)
        proc.stderr.close()
    assert err.startswith("aodecomp: cannot write to stdout") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["catalog"], ["--help"], ["catalog", "--help"]], ids=["catalog", "help", "catalog_help"])
def test_a_full_stdout_gets_exit_1_and_one_message(argv):
    # the interpreter's last flush at exit finds nothing left to write
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "aodecomp.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env={"PYTHONPATH": str(SRC)}, timeout=60, check=False,
        )
    assert proc.returncode == 1
    assert proc.stderr == "aodecomp: cannot write to stdout: No space left on device\n"


def _in_sh(argv: list[str], redirect: str) -> subprocess.CompletedProcess:
    """The CLI run in a fresh interpreter by ``sh -c``, with a redirection such as ``>&-`` applied to it."""
    command = " ".join(map(shlex.quote, [sys.executable, "-m", "aodecomp.cli", *argv]))
    return subprocess.run(
        [shutil.which("sh"), "-c", f"{command} {redirect}"],
        capture_output=True, env={"PYTHONPATH": str(SRC)}, timeout=60, check=False,
    )


BLOWUP = ["simulate", "--system", "saddle_tracezero", "--x0", "1,0", "--t-end", "40"]


@pytest.mark.skipif(shutil.which("sh") is None, reason="needs sh")
def test_a_closed_stdout_gets_exit_1_and_one_message():
    # with descriptor 1 closed at start-up, sys.stdout is None
    proc = _in_sh(["catalog"], ">&-")
    assert proc.returncode == 1
    assert proc.stderr == b"aodecomp: cannot write to stdout: it is closed\n"


@pytest.mark.skipif(shutil.which("sh") is None, reason="needs sh")
@pytest.mark.parametrize(
    "argv, code",
    [
        (["catalog"], 0),
        (["decompose"], 1),
        (["decompose", "--matrix", "0,1,-1,0", "--d", "1,0,1"], 2),
        (BLOWUP, 3),
    ],
    ids=["ok", "usage", "inconsistent", "blowup"],
)
def test_a_closed_stderr_keeps_the_exit_code(argv, code):
    # the aodecomp: line is lost, not the exit code, and stdout is as it would be
    proc = _in_sh(argv, "2>&-")
    assert proc.returncode == code
    assert proc.stderr == b""
    if code == 0:
        assert json.loads(proc.stdout)["kind"] == "catalog"
    elif code == 3:
        assert proc.stdout.endswith(b"\n# truncated: state blew up at t=27.632 integrating 'saddle_tracezero'\n")
    else:
        assert proc.stdout == b""


@pytest.mark.parametrize("encoding", ["utf-8", "utf-16"])
def test_stdout_takes_the_bytes_of_an_out_file(encoding, tmp_path, monkeypatch):
    # the document goes to stdout's binary buffer as the UTF-8 bytes of --out, after any text still pending
    argv = ["report", "--system", "hopf_limit_cycle", "--grid", "-1,1,-1,1,50,50", "--format", "json"]
    path = tmp_path / "report.json"
    assert main(argv + ["--out", str(path)]) == 0
    stdout = io.TextIOWrapper(io.BytesIO(), encoding=encoding)
    stdout.write("#")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    assert stdout.buffer.getvalue() == "#".encode(encoding) + path.read_bytes()


@pytest.mark.parametrize("grid, loaded", [("0,1,0,1,3,3", False), ("0,1,0,1,40,40", True)])
def test_floatfmt_loads_only_for_a_block_of_many_distinct_values(grid, loaded):
    # a one-shot CSV of a few cells stays on repr and does not pay floatfmt's import
    code = (
        "import sys; from aodecomp.cli import main; "
        f"main(['grid', '--system', 'hopf_limit_cycle', '--grid', '{grid}', '--quantity', 'potential']); "
        "print('aodecomp.floatfmt' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={"PYTHONPATH": str(SRC)}, timeout=60, check=True,
    )
    assert proc.stderr == f"{loaded}\n"
    assert proc.stdout.count("\n") == 1 + math.prod(map(int, grid.split(",")[4:]))


def test_large_matrix_decomposes_with_u_equal_minus_a():
    # squares of 1e200 overflow; the tolerance scales must not square as a float power
    proc = _decompose_in_fresh_interpreter("1e200,0,0,1e200")
    assert proc.returncode == 0
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["potential_matrix"] == [[-1e200, -0.0], [-0.0, -1e200]]
    assert doc["spectral_class"] == {"kind": "repeated_diagonalizable", "values": [1e200]}


def test_overflowing_matrix_exits_1_without_traceback():
    proc = _decompose_in_fresh_interpreter("1e308,0,0,1e308")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("aodecomp:")
    assert "Traceback" not in proc.stderr


def _assert_overflow_names_input(code, out, err, flag, value):
    assert code == 1
    assert out == ""
    assert err.startswith("aodecomp:")
    assert f"{flag} {value}" in err
    assert "overflows float64" in err
    assert "Point2" not in err and "Matrix2" not in err


def test_overflowing_matrix_message_names_the_flag(capsys):
    code, out, err = run(capsys, "decompose", "--matrix", "1e308,0,0,1e308")
    _assert_overflow_names_input(code, out, err, "--matrix", "1e308,0,0,1e308")
    assert "decomposition" in err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["--matrix", "1,2,3,4", "--q", "-1e308"], "--q", "-1e308"),
        (["--matrix", "1,2,3,-1", "--d", "0,0,0", "--q", "1e308"], "--q", "1e308"),  # the family branch
        (["--matrix", "1e308,1e308,1e308,1e308", "--d", "2,0,2", "--q", "0"], "--matrix", "1e308,1e308,1e308,1e308"),
    ],
    ids=["unique", "family", "matrix"],
)
def test_overflowing_q_residual_message_names_the_flag(capsys, argv, flag, value):
    # A Q + Q A^T overflows at the override (at q = 0 too for the matrix case); a finite residual
    # that only its norm overflows is the "violates" message of test_decompose_invalid_q_override
    code, out, err = run(capsys, "decompose", *argv)
    _assert_overflow_names_input(code, out, err, flag, value)
    assert "gyration constraint residual" in err


def test_overflowing_initial_state_message_names_the_flag(capsys):
    code, out, err = run(capsys, "simulate", "--system", "hopf_limit_cycle", "--x0", "1e200,0")
    _assert_overflow_names_input(code, out, err, "--x0", "1e200,0")
    assert "vector field of 'hopf_limit_cycle'" in err


def test_overflowing_report_point_message_names_the_flag(capsys):
    code, out, err = run(
        capsys, "report", "--system", "hopf_limit_cycle", "--at", "1,0", "--at", "1e200,0", "--grid", "-1,1,-1,1,3,3",
    )
    _assert_overflow_names_input(code, out, err, "--at", "1e200,0")
    assert "vector field of 'hopf_limit_cycle'" in err
    code, out, err = run(capsys, "report", "--system", "hopf_limit_cycle", "--grid", "-1e200,1e200,-1,1,3,3")
    _assert_overflow_names_input(code, out, err, "--grid", "-1e200,1e200,-1,1,3,3")
    # both sources overflow: the --at point holds the first non-finite row, so it is named
    code, out, err = run(
        capsys, "report", "--system", "hopf_limit_cycle", "--at", "1e200,0", "--grid", "-1e200,1e200,-1,1,3,3",
    )
    _assert_overflow_names_input(code, out, err, "--at", "1e200,0")
    assert "--grid" not in err


@pytest.mark.parametrize("sources", [[], [("--x0", "1,0", 1)]], ids=["no-input", "one-input"])
@pytest.mark.parametrize(
    "error",
    [ValueError("not an overflow"), NotFiniteQuantity("dissipation power", math.inf, 1)],
    ids=["value-error", "row-past-every-input"],
)
def test_naming_overflow_lets_a_value_error_at_no_input_propagate_unchanged(sources, error):
    with pytest.raises(ValueError) as info:
        with cli._naming_overflow("hopf_limit_cycle", sources):
            raise error
    assert info.value is error


@pytest.mark.parametrize("row, named", [(0, "--at 1,0"), (1, "--at 2,0"), (2, "--grid g"), (10, "--grid g")])
def test_naming_overflow_names_the_input_that_holds_the_row(row, named):
    sources = [("--at", "1,0", 1), ("--at", "2,0", 1), ("--grid", "g", 9)]
    with pytest.raises(cli._UsageError) as info:
        with cli._naming_overflow("hopf_limit_cycle", sources):
            raise NotFiniteQuantity("divergence", math.nan, row)
    assert str(info.value) == f"the divergence of 'hopf_limit_cycle' overflows float64 at {named}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--system", "stable_node", "--x0", "1e200,0"],
         "the dissipation power of 'stable_node' overflows float64 at --x0 1e200,0"),
        (["simulate", "--system", "hopf_limit_cycle", "--x0", "1e77,0"],
         "the dissipation power of 'hopf_limit_cycle' overflows float64 at --x0 1e77,0"),
        # the polar run overflows in its own divergence at r = 1e200, not in the Cartesian vector field
        (["simulate", "--system", "hopf_limit_cycle", "--x0", "1e200,0", "--polar"],
         "the divergence of 'hopf_limit_cycle' overflows float64 at --x0 1e200,0"),
        # the vector field fails first, on the grid; the power at the --at point would fail after it
        (["report", "--system", "hopf_limit_cycle", "--at", "1e77,0", "--grid", "-1e200,1e200,-1,1,3,3"],
         "the vector field of 'hopf_limit_cycle' overflows float64 at --grid -1e200,1e200,-1,1,3,3"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_overflow_message_names_the_input_of_the_first_non_finite_row(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"aodecomp: {message}\n")


def test_overflowing_grid_span_message_names_the_flag(capsys):
    code, out, err = run(
        capsys, "grid", "--system", "hopf_limit_cycle", "--grid", "-1e308,1e308,-1,1,3,3", "--quantity", "potential",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("aodecomp: the coordinates of --grid -1e308,1e308,-1,1,3,3 overflow float64")
    assert "Point2" not in err


def test_overflowing_decompose_point_message_names_the_flag(capsys):
    code, out, err = run(capsys, "decompose", "--system", "hopf_limit_cycle", "--at", "1e200,0")
    _assert_overflow_names_input(code, out, err, "--at", "1e200,0")


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--matrix", "1,0,0,inf"],
        ["decompose", "--matrix", "-1,0,0,-2", "--d", "nan,0,1"],
        ["decompose", "--system", "hopf_limit_cycle", "--at", "nan,0"],
        ["simulate", "--system", "hopf_limit_cycle", "--x0", "-inf,0"],
        ["report", "--system", "hopf_limit_cycle", "--at", "0,nan"],
    ],
    ids=lambda argv: argv[-2],
)
def test_non_finite_input_message_names_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"aodecomp: {argv[-2]} values must be finite, got {argv[-1]!r}\n"


NONFINITE_GRID = "-1e200,1e200,-1e200,1e200,3,3"


@pytest.mark.parametrize(
    "argv, quantity",
    [
        # h_p overflows to inf; these were once 'dissipative' rows with agree = true
        (["report", "--system", "stable_node", "--grid", NONFINITE_GRID, "--format", "csv"], "dissipation power"),
        (["report", "--system", "stable_node", "--grid", NONFINITE_GRID, "--format", "json"], "dissipation power"),
        (["grid", "--system", "stable_spiral", "--grid", NONFINITE_GRID, "--quantity", "criteria_agreement"],
         "dissipation power"),
        (["grid", "--system", "stable_node", "--grid", NONFINITE_GRID, "--quantity", "dissipation_power"],
         "dissipation power"),
        (["grid", "--system", "stable_spiral", "--grid", NONFINITE_GRID, "--quantity", "phi_rate"],
         "rate of change of the potential"),
        (["grid", "--system", "stable_spiral", "--grid", NONFINITE_GRID, "--quantity", "potential"], "potential"),
        (["grid", "--system", "hopf_limit_cycle", "--grid", NONFINITE_GRID, "--quantity", "divergence"], "divergence"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_non_finite_quantity_exits_1_naming_it(capsys, monkeypatch, argv, quantity):
    monkeypatch.delenv("AODECOMP_TOL", raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    system = argv[argv.index("--system") + 1]
    assert err == f"aodecomp: the {quantity} of {system!r} overflows float64 at --grid {NONFINITE_GRID}\n"


def test_non_finite_column_message_names_the_first_input(capsys):
    # the --at point is finite everywhere; the grid after it is not
    code, out, err = run(
        capsys, "report", "--system", "stable_node", "--at", "1,0", "--grid", NONFINITE_GRID, "--format", "csv",
    )
    assert (code, out) == (1, "")
    assert err == f"aodecomp: the dissipation power of 'stable_node' overflows float64 at --grid {NONFINITE_GRID}\n"
