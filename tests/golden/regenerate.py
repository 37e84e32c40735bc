"""Record the golden CLI corpus: every argv below, with the sha256 of its stdout.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

It rewrites ``tests/golden/manifest.json``. Each entry holds the argv, the
sha256 of the bytes written to stdout, the exit code, and whether stderr
starts with ``aodecomp:``. ``tests/test_golden.py`` replays the manifest, so
regenerate only when an output change is intended and reviewed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

MANIFEST = Path(__file__).with_name("manifest.json")

SYSTEMS = (
    "hopf_limit_cycle",
    "stable_node",
    "saddle_tracezero",
    "repeated_diagonal",
    "zero_matrix",
    "defective",
    "defective_nilpotent",
    "stable_spiral",
    "center_conservative",
)
LINEAR = SYSTEMS[1:]
QUANTITIES = ("potential", "vector_field", "divergence", "dissipation_power", "phi_rate", "criteria_agreement")
FORMATS = ("csv", "json")

# 7x5 grid through the origin and the four points of the unit circle on the axes.
SMALL_GRID = "-1.5,1.5,-1,1,7,5"
# On the unit circle, the half-power circle, an off-axis point and the origin.
REPORT_POINTS = ("1,0", "0.7071067811865476,0", "0.3,-1.2", "0,0")
HOPF_POINTS = ("0.5,0", "1,0", "0.3,-1.2", "0,0")
OVERFLOW_FRAME_POINTS = (
    (("--system", "stable_node"), "1e200,0"),
    (("--system", "stable_spiral"), "1e200,-3e199"),
    (("--system", "hopf_limit_cycle"), "1.2e102,1.2e102"),
    (("--matrix", "-1,0.5,0.2,-2"), "1e250,1e250"),
)


def corpus() -> list[list[str]]:
    argvs: list[list[str]] = []
    for fmt in FORMATS:
        argvs.append(["catalog", "--format", fmt])
    for system in SYSTEMS:
        for quantity in QUANTITIES:
            argvs.append(["grid", "--system", system, "--grid", SMALL_GRID, "--quantity", quantity])
        for fmt in FORMATS:
            at = [arg for point in REPORT_POINTS for arg in ("--at", point)]
            argvs.append(["report", "--system", system, *at, "--grid", SMALL_GRID, "--format", fmt])
        argvs.append(["simulate", "--system", system, "--x0", "0.5,0.25", "--dt", "0.01", "--t-end", "3"])
    argvs.append(["simulate", "--system", "hopf_limit_cycle", "--x0", "0.5,0.25", "--dt", "0.01", "--t-end", "3", "--polar"])
    argvs.append(["simulate", "--system", "saddle_tracezero", "--x0", "1,0.5", "--dt", "0.1", "--t-end", "30"])
    for fmt in FORMATS:
        for system in LINEAR:
            argvs.append(["decompose", "--system", system, "--format", fmt])
        for point in HOPF_POINTS:
            argvs.append(["decompose", "--system", "hopf_limit_cycle", "--at", point, "--format", fmt])
        argvs.append(["decompose", "--matrix", "-1,0.5,0.2,-2", "--d", "1,0.3,1", "--format", fmt])
        argvs.append(["decompose", "--matrix", "-1,0.5,0.2,-2", "--at", "0.4,-0.7", "--format", fmt])
        argvs.append(["decompose", "--matrix", "1,0,0,-1", "--format", fmt])
        argvs.append(["decompose", "--matrix", "0,1,-1,0", "--d", "1,0,1", "--format", fmt])
    # Edge inputs: a grid span that overflows, a field that overflows at
    # +-1e200, products that overflow without a check, and -0.0 bounds.
    huge = "-1e200,1e200,-1e200,1e200,7,5"
    argvs.append(["grid", "--system", "hopf_limit_cycle", "--grid", "-1e308,1e308,-1,1,7,5", "--quantity", "potential"])
    argvs.append(["report", "--system", "stable_node", "--grid", "-1e308,1e308,-1,1,7,5", "--format", "csv"])
    for quantity in QUANTITIES:
        argvs.append(["grid", "--system", "hopf_limit_cycle", "--grid", huge, "--quantity", quantity])
        argvs.append(["grid", "--system", "stable_spiral", "--grid", huge, "--quantity", quantity])
    for fmt in FORMATS:
        argvs.append(["report", "--system", "stable_node", "--grid", huge, "--format", fmt])
        argvs.append(["report", "--system", "hopf_limit_cycle", "--grid", huge, "--format", fmt])
        argvs.append(["report", "--system", "hopf_limit_cycle", "--at", "-0.0,-0.0", "--at", "-0.0,1", "--format", fmt])
    # Points where f.f, grad(phi).f or the transverse product overflows, so
    # only the unit copies of f and grad(phi) keep the frame finite.
    for fmt in FORMATS:
        for source, point in OVERFLOW_FRAME_POINTS:
            argvs.append(["decompose", *source, "--at", point, "--format", fmt])
    argvs.append(["grid", "--system", "hopf_limit_cycle", "--grid", "-0.0,1,-0.0,1,3,3", "--quantity", "vector_field"])
    argvs.append(["grid", "--system", "saddle_tracezero", "--grid", "-0.0,1,-1,-0.0,3,3", "--quantity", "dissipation_power"])
    # Stepper blow-ups on the oscillator: r**3 raises OverflowError in the
    # polar chart, and the Cartesian state leaves the blow-up box.
    argvs.append(["simulate", "--system", "hopf_limit_cycle", "--x0", "1e103,0", "--polar", "--dt", "0.01", "--t-end", "0.05"])
    argvs.append(["simulate", "--system", "hopf_limit_cycle", "--x0", "1e5,0", "--dt", "0.01", "--t-end", "0.05"])
    return argvs


def run(argv: list[str]) -> tuple[int, bytes, str]:
    """Run one CLI call in this process; return (exit code, stdout bytes, stderr)."""
    from aodecomp.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def record(argv: list[str]) -> dict:
    code, out, err = run(argv)
    return {
        "argv": argv,
        "sha256": hashlib.sha256(out).hexdigest(),
        "exit": code,
        "stderr_aodecomp": err.startswith("aodecomp:"),
    }


def main() -> int:
    os.environ.pop("AODECOMP_TOL", None)
    entries = [record(argv) for argv in corpus()]
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {MANIFEST}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
