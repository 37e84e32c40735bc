"""Command-line surface: documents, exit codes, determinism, golden files."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from aodecomp.cli import main


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


def test_decompose_usage_errors(capsys):
    assert run(capsys, "decompose")[0] == 1
    assert run(capsys, "decompose", "--matrix", "1,2,3")[0] == 1
    assert run(capsys, "decompose", "--matrix", "1,0,0,1", "--d", "-1,0,1")[0] == 1
    assert run(capsys, "decompose", "--system", "nope")[0] == 1
    assert run(capsys, "decompose", "--system", "hopf_limit_cycle")[0] == 1


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


def test_out_file_matches_stdout(capsys, tmp_path):
    _, stdout_text, _ = run(capsys, "report", "--system", "hopf_limit_cycle", "--at", "1,0")
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "report", "--system", "hopf_limit_cycle", "--at", "1,0", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    assert out_path.read_text() == stdout_text


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
    assert lines[-1].startswith("# truncated:")
    assert err.startswith("aodecomp:")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_master_tol_rejects_invalid_env_values(capsys, monkeypatch, value):
    monkeypatch.setenv("AODECOMP_TOL", value)
    code, out, err = run(capsys, "report", "--system", "hopf_limit_cycle", "--at", "1,0")
    assert code == 1
    assert out == ""
    assert err.startswith("aodecomp: AODECOMP_TOL must be a finite nonnegative tolerance")
