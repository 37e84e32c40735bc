"""Fuzz the command line in-process: every argv ends in a clean document or a documented exit.

Hypothesis draws argument vectors for every subcommand, with catalog names,
signed zeros, subnormals, +-1e308, ``nan``/``inf`` strings and malformed
comma lists, and runs them through ``cli.main``. The runs are derandomized,
so the suite sees the same examples on every run.

- The exit code is 0, 1, 2 or 3; a nonzero exit writes no document and an
  ``aodecomp:`` message without a traceback.
- Exit 0 writes strict JSON (no NaN or Infinity) or CSV with no ``nan`` or
  ``inf`` cell and the same field count in every row, and a second run
  writes the same bytes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aodecomp import list_systems
from aodecomp.cli import MAX_GRID_POINTS, QUANTITIES, main

EDGE_NUMBERS = (
    "0", "-0.0", "0.0", "1", "-1", "0.5", "-2.5", "5e-324", "-5e-324", "2.2250738585072014e-308",
    "1e200", "-1e200", "1e308", "-1e308", "1.7976931348623157e308", "nan", "-nan", "inf", "-inf",
)
MALFORMED = ("", ",", "1,,2", "a,b", "1;2", "0x1,2", "1e999,0", "--1,2", "1,2,3,4,5,6,7")
NON_FINITE_CELLS = {"nan", "-nan", "inf", "-inf"}

moderate = st.floats(-4.0, 4.0).map(repr)
finite = st.one_of(moderate, st.sampled_from([v for v in EDGE_NUMBERS if "n" not in v]))
number = st.one_of(moderate, st.sampled_from(EDGE_NUMBERS), st.floats().map(repr))
fmt = st.sampled_from(("json", "csv"))


def numbers(n: int, clean: bool):
    """A comma list of n finite numbers if ``clean``, else any numbers, any length, or no numbers at all."""
    if clean:
        return st.lists(finite, min_size=n, max_size=n).map(",".join)
    return st.one_of(
        st.lists(number, min_size=n, max_size=n).map(",".join),
        st.lists(number, max_size=n + 2).map(",".join),
        st.sampled_from(MALFORMED),
    )


@st.composite
def grids(draw, clean: bool):
    """xmin,xmax,ymin,ymax,nx,ny with few points, or more than MAX_GRID_POINTS.

    If ``clean``, the bounds are ordered and finite and the counts >= 2.
    """
    if not clean and draw(st.booleans()):
        return draw(st.sampled_from(("-1e308,1e308,-1,1,3,3",) + MALFORMED))
    if clean:  # moderate bounds, or bounds where a quantity may overflow
        scale = 10.0 ** draw(st.sampled_from((0, 0, 0, 100, 154, 200, 300)))
        bounds = [repr(v * scale) for v in draw(st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4, unique=True))]
    else:
        bounds = draw(st.lists(number, min_size=4, max_size=4))
    counts = st.integers(2, 5) if clean else st.one_of(st.integers(-1, 5), st.sampled_from(("2.5", "x")))
    nx, ny = draw(counts), draw(counts)
    if draw(st.integers(0, 9)) == 0:
        # over MAX_GRID_POINTS with any ny >= 2, so no draw allocates a large grid
        nx = draw(st.integers(MAX_GRID_POINTS // 2 + 1, 10**18))
    x, y = sorted(bounds[:2], key=float), sorted(bounds[2:], key=float)
    return ",".join(x + y + [str(nx), str(ny)])


def option(flag: str, value):
    return st.one_of(st.just([]), value.map(lambda v: [flag, v]))


@st.composite
def argvs(draw):
    """One argv: half of them well formed with known systems, the rest anything goes."""
    clean = draw(st.booleans())
    system = st.sampled_from(list_systems()) if clean else st.sampled_from([*list_systems(), "no_such_system"])
    command = draw(st.sampled_from(("decompose", "simulate", "report", "grid", "catalog")))
    if command == "catalog":
        return ["catalog", "--format", draw(fmt)]
    if command == "grid":
        quantity = draw(st.sampled_from(QUANTITIES))
        return ["grid", "--system", draw(system), "--grid", draw(grids(clean)), "--quantity", quantity]
    if command == "simulate":
        # these step sizes keep t_end / dt to a few thousand steps or reject it, some as over MAX_STEPS
        dt = draw(st.sampled_from(("0.1", "0.25") if clean else ("0", "-0.1", "nan", "inf", "-inf", "5e-324", "1e-6", "1e308")))
        t_end = draw(st.sampled_from(("0.5", "3") if clean else ("0", "-1", "nan", "inf", "1e-320", "2", "1e308")))
        argv = ["simulate", "--system", draw(system), "--x0", draw(numbers(2, clean)), f"--dt={dt}", f"--t-end={t_end}"]
        return argv + (["--polar"] if draw(st.booleans()) else [])
    argv = [command]
    if command == "report":
        argv += ["--system", draw(system)]
        for point in draw(st.lists(numbers(2, clean), max_size=3)):
            argv += ["--at", point]
        argv += draw(option("--grid", grids(clean)))
    elif draw(st.booleans()):
        argv += ["--system", draw(system)]
        argv += draw(option("--at", numbers(2, clean)))
    else:
        argv += ["--matrix", draw(numbers(4, clean))]
        argv += draw(option("--d", numbers(3, clean)))
        argv += draw(option("--q", finite if clean else number))
        argv += draw(option("--at", numbers(2, clean)))
    return argv + ["--format", draw(fmt)]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def assert_clean_csv(text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    assert rows and len({len(row) for row in rows}) == 1, "rows differ in their field counts"
    cells = {part.strip().lower() for row in rows for cell in row for part in cell.split(";")}
    assert not cells & NON_FINITE_CELLS, f"non-finite cell in {sorted(cells & NON_FINITE_CELLS)}"


@settings(
    max_examples=400, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(argvs())
# inputs where a quantity overflows on a grid or where the frame products overflow at a point
@example(["report", "--system", "stable_node", "--grid", "-1e200,1e200,-1e200,1e200,3,3", "--format", "csv"])
@example(["grid", "--system", "stable_spiral", "--grid", "-1e200,1e200,-1e200,1e200,3,3", "--quantity", "criteria_agreement"])
@example(["grid", "--system", "hopf_limit_cycle", "--grid", "-1e200,1e200,-1,1,3,3", "--quantity", "potential"])
@example(["decompose", "--system", "stable_node", "--at", "1e200,0", "--format", "csv"])
# a catalog system with a flag of the --matrix decomposition, which it rejects
@example(["decompose", "--system", "stable_node", "--d", "1,0.5,1", "--format", "json"])
@example(["decompose", "--system", "hopf_limit_cycle", "--matrix", "-1,0,0,-2", "--at", "0.5,0", "--format", "csv"])
@example(["decompose", "--system", "saddle_tracezero", "--q", "0.3", "--format", "json"])
# grids and step counts over the caps
@example(["grid", "--system", "hopf_limit_cycle", "--grid", "0,1,0,1,1000000,1000000", "--quantity", "potential"])
@example(["simulate", "--system", "hopf_limit_cycle", "--x0", "0.5,0", "--dt=1e-300", "--t-end=1"])
def test_every_argv_ends_in_a_document_or_a_documented_exit(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code != 0:
        assert err.startswith("aodecomp:"), (argv, err)
        if code != 3:  # a blow-up writes the truncated trajectory with its trailer
            assert out == ""
        return
    assert err == ""
    if argv[-2:] == ["--format", "json"]:
        json.loads(out, parse_constant=reject_constant)
    else:
        assert_clean_csv(out)
    assert run(argv) == (code, out, err)
