"""Command-line surface: decompose, simulate, report, grid, catalog.

Documents are JSON with a fixed key schema or CSV with '.' decimals, ','
separators and '\\n' line endings; floats are serialized with shortest
round-trip precision so parse(emit(x)) == x. All outputs are deterministic
for identical arguments.

Exit codes: 0 success, 1 usage or input error, 2 inconsistent decomposition
request, 3 numerical blow-up.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import numpy as np

from . import catalog, dissipation, dynamics, field, linear
from .core import DiffusionParams, Matrix2, Point2, SystemSpec, check_finite
from .errors import (
    AodecompError,
    AsymmetricU,
    EquilibriumPoint,
    MissingPotential,
    NonFinite,
    SingularMatrix,
    UnknownSystem,
)
from .tolerances import LYAPUNOV_RESIDUAL_TOL, master_tol

# Flags whose value is a comma list that may begin with a negative number;
# their values are folded into --flag=value before argparse sees them.
_COMMA_FLAGS = {"--matrix", "--d", "--at", "--x0", "--grid", "--q"}

QUANTITIES = (
    "potential",
    "vector_field",
    "divergence",
    "dissipation_power",
    "phi_rate",
    "criteria_agreement",
)

# CSV text is built this many rows at a time (see _emit_csv).
_CSV_BLOCK_ROWS = 2048
_VERDICT_CELLS = np.array(dissipation.VERDICTS, dtype=object)
_BOOL_CELLS = np.array(["false", "true"], dtype=object)


class _UsageError(Exception):
    """Invalid arguments or input values; mapped to exit code 1."""


class _InconsistentRequest(Exception):
    """Decomposition request with no valid gyration; mapped to exit code 2."""


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise _UsageError(f"{what} expects {n} comma-separated values, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise _UsageError(f"could not parse {what} {text!r}: {exc}") from None


def _parse_matrix(text: str) -> Matrix2:
    a11, a12, a21, a22 = _parse_floats(text, 4, "--matrix")
    try:
        return Matrix2(a11, a12, a21, a22)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_point(text: str, what: str) -> Point2:
    x1, x2 = _parse_floats(text, 2, what)
    try:
        return Point2(x1, x2)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_diffusion(text: str) -> DiffusionParams:
    d11, d12, d22 = _parse_floats(text, 3, "--d")
    try:
        return DiffusionParams(d11, d12, d22)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_grid(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Points of an xmin,xmax,ymin,ymax,nx,ny grid as x1, x2 columns; rows run y-outer, x-inner."""
    parts = text.split(",")
    if len(parts) != 6:
        raise _UsageError(f"--grid expects xmin,xmax,ymin,ymax,nx,ny, got {text!r}")
    try:
        xmin, xmax, ymin, ymax = (float(p) for p in parts[:4])
        nx, ny = int(parts[4]), int(parts[5])
    except ValueError as exc:
        raise _UsageError(f"could not parse --grid {text!r}: {exc}") from None
    if not (xmin < xmax and ymin < ymax):
        raise _UsageError(
            f"grid bounds must satisfy xmin < xmax and ymin < ymax, got {xmin},{xmax},{ymin},{ymax}"
        )
    if nx < 2 or ny < 2:
        raise _UsageError(f"grid needs nx, ny >= 2, got nx={nx}, ny={ny}")
    with np.errstate(all="ignore"):  # a span that overflows yields inf/nan, rejected below
        xs = xmin + (xmax - xmin) * np.arange(nx) / (nx - 1)
        ys = ymin + (ymax - ymin) * np.arange(ny) / (ny - 1)
    x1, x2 = np.tile(xs, ny), np.repeat(ys, nx)
    check_finite(x1, x2)
    return x1, x2


def _fold_comma_values(argv: list[str]) -> list[str]:
    """Rewrite ['--matrix', '-1,0,0,-2'] as ['--matrix=-1,0,0,-2'].

    argparse would otherwise read a value starting with '-' as an option.
    """
    out: list[str] = []
    it = iter(argv)
    for token in it:
        if token in _COMMA_FLAGS:
            value = next(it, None)
            if value is None:
                out.append(token)
            else:
                out.append(f"{token}={value}")
        else:
            out.append(token)
    return out


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _emit_json(doc: dict, out: str | None) -> None:
    _write_output(json.dumps(doc, indent=2) + "\n", out)


def _emit_csv(header: list[str], columns: list, out: str | None, trailer: str | None = None) -> None:
    """Write equal-length columns as CSV.

    A float64 column prints in shortest round-trip form, with -0.0 folded to
    0.0; any other column holds ready cell strings. The text is built a block
    of rows at a time, so only one block's cell strings exist at once.
    """
    blocks = [",".join(header) + "\n"]
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        cells = []
        for column in columns:
            block = column[start:start + _CSV_BLOCK_ROWS]
            if isinstance(block, np.ndarray) and block.dtype.kind == "f":
                block = list(map(repr, (block + 0.0).tolist()))
            cells.append(block)
        blocks.append("\n".join(map(",".join, zip(*cells))) + "\n")
    if trailer is not None:
        blocks.append(trailer + "\n")
    _write_output("".join(blocks), out)


def _doc_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value) + 0.0)
    return str(value)


def _flatten_for_csv(doc: dict, prefix: str = "") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten_for_csv(value, prefix=f"{name}."))
        elif isinstance(value, list):
            # a list holds scalars, or rows of scalars for a matrix
            flat = [v for item in value for v in (item if isinstance(item, list) else [item])]
            rows.append((name, ";".join(map(_doc_cell, flat))))
        else:
            rows.append((name, _doc_cell(value)))
    return rows


def _csv_quoted(text: str) -> str:
    """One CSV field, quoted where csv.writer's minimal quoting would quote it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _get_system(args) -> catalog.CatalogEntry:
    try:
        return catalog.get(args.system)
    except UnknownSystem as exc:
        raise _UsageError(str(exc)) from None


def _pointwise_doc(system: SystemSpec, at: Point2, name: str) -> dict:
    try:
        pd = field.point_decomposition(system, at)
    except (MissingPotential, EquilibriumPoint) as exc:
        raise _UsageError(str(exc)) from None
    s, t = pd.friction, pd.transverse
    fv, gv = pd.drift, pd.potential_gradient
    frame_residual = max(
        abs(s * fv.x1 + t * fv.x2 + gv.x1),
        abs(-t * fv.x1 + s * fv.x2 + gv.x2),
    )
    return {
        "kind": "point_decomposition",
        "system": name,
        "at": [at.x1, at.x2],
        "friction": s,
        "transverse": t,
        "diffusion": pd.diffusion,
        "gyration": pd.gyration,
        "singular_on_isopotential": pd.singular_on_isopotential,
        "drift": [fv.x1, fv.x2],
        "potential_gradient": [gv.x1, gv.x2],
        "frame_residual": frame_residual,
    }


def _linear_doc(name: str, dec: linear.LinearDecomposition, branch: str, note: str) -> dict:
    spectral = linear.classify_spectrum(dec.a)
    u = dec.potential_matrix
    probes = (Point2(1.0, 0.0), Point2(0.0, 1.0), Point2(1.0, 1.0), Point2(-1.0, 0.5))
    reconstruction = max(
        (linear.reconstruct_drift(dec, p) - dec.a.apply(p)).norm() for p in probes
    )
    return {
        "kind": "linear_decomposition",
        "system": name,
        "matrix": dec.a.rows(),
        "spectral_class": {"kind": spectral.kind, "values": list(spectral.values)},
        "gyration_branch": branch,
        "gyration_note": note,
        "diffusion": dec.diffusion.matrix().rows(),
        "gyration": dec.gyration.q,
        "friction": dec.friction.rows(),
        "transverse": dec.transverse.q,
        "potential_matrix": u.rows(),
        "potential_coefficients": {
            "x1^2": 0.5 * u.a11,
            "x1*x2": 0.5 * (u.a12 + u.a21),
            "x2^2": 0.5 * u.a22,
        },
        "residuals": {
            "gyration_constraint": linear.lyapunov_equation_residual(
                dec.a, dec.diffusion, dec.gyration
            ),
            "potential_asymmetry": dec.potential_asymmetry,
            "drift_reconstruction": reconstruction,
        },
    }


def cmd_decompose(args) -> int:
    if args.system is None and args.matrix is None:
        raise _UsageError("decompose needs --system NAME or --matrix a11,a12,a21,a22")

    if args.system is not None:
        entry = _get_system(args)
        if args.at is not None:
            doc = _pointwise_doc(entry.system, _parse_point(args.at, "--at"), entry.name)
        elif entry.decomposition is not None:
            branch = linear.solve_gyration(entry.decomposition.a, entry.decomposition.diffusion)
            doc = _linear_doc(entry.name, entry.decomposition, branch.branch, branch.note)
        else:
            raise _UsageError(
                f"system {args.system!r} is not linear; pointwise decomposition needs --at x1,x2"
            )
    else:
        a = _parse_matrix(args.matrix)
        d = _parse_diffusion(args.d) if args.d is not None else DiffusionParams.identity()
        sol = linear.solve_gyration(a, d)
        if sol.branch == linear.INCONSISTENT:
            raise _InconsistentRequest(
                f"no gyration value satisfies the constraint for this diffusion: "
                f"{sol.note}; unmatched right-hand side {sol.residual!r}"
            )
        q = sol.q
        if args.q is not None:
            q = float(args.q)
            residual = linear.lyapunov_equation_residual(a, d, q)
            if residual > LYAPUNOV_RESIDUAL_TOL * (1.0 + a.max_abs()) * (1.0 + d.max_abs()):
                raise _UsageError(
                    f"--q {args.q} violates the gyration constraint "
                    f"(residual {residual!r}); the {sol.branch} solution is {sol.q!r}"
                )
        try:
            dec = linear.assemble_decomposition(a, d, q)
        except (SingularMatrix, AsymmetricU) as exc:
            raise _UsageError(str(exc)) from None
        doc = _linear_doc("custom", dec, sol.branch, sol.note)
        if args.at is not None:
            system = SystemSpec.linear("custom", a, potential=dec.potential())
            doc = _pointwise_doc(system, _parse_point(args.at, "--at"), "custom")

    if args.format == "json":
        _emit_json(doc, args.out)
    else:
        keys, cells = zip(*_flatten_for_csv(doc))
        _emit_csv(["key", "value"], [keys, cells], args.out)
    return 0


def _s_matrix(entry: catalog.CatalogEntry) -> Matrix2 | None:
    """The constructed friction matrix of a linear entry; None for pointwise friction."""
    return entry.decomposition.friction if entry.decomposition is not None else None


def cmd_simulate(args) -> int:
    entry = _get_system(args)
    x0 = _parse_point(args.x0, "--x0")
    dt, t_end = args.dt, args.t_end
    if not (dt > 0.0 and math.isfinite(t_end) and t_end >= dt):
        raise _UsageError(f"need dt > 0 and a finite t_end >= dt, got dt={dt!r}, t_end={t_end!r}")

    if args.polar:
        if entry.name != catalog.HOPF:
            raise _UsageError(f"--polar applies only to {catalog.HOPF!r}")
        r0 = x0.norm()
        if r0 <= 0.0:
            raise _UsageError("--polar needs a nonzero initial state")
    try:
        if args.polar:
            traj = dynamics.integrate_polar(r0, math.atan2(x0.x2, x0.x1), dt=dt, t_end=t_end)
        else:
            traj = dynamics.integrate(entry.system, x0, dt=dt, t_end=t_end)
        failure = None
    except NonFinite as exc:
        traj, failure = exc.trajectory, str(exc)

    columns = [traj.t, traj.x[:, 0], traj.x[:, 1]]
    if args.polar:
        header = ["t", "r", "theta"]
    else:
        header = ["t", "x1", "x2", "phi", "phi_rate", "h_p", "div_f"]
        samples = (traj.phi, traj.phi_rate, traj.h_p, traj.div_f)
        columns += [[""] * len(traj) if c is None else c for c in samples]
    _emit_csv(header, columns, args.out, trailer=None if failure is None else f"# truncated: {failure}")
    if failure is None:
        return 0
    print(f"aodecomp: {failure}", file=sys.stderr)
    return 3


def _report_doc(
    name: str, tol: float, x1: np.ndarray, x2: np.ndarray, rep: dissipation.ReportColumns
) -> dict:
    verdicts = dissipation.VERDICTS
    docs = [
        {
            "at": [a, b],
            "h_p": h_p,
            "div_f": div_f,
            "phi_rate": rate,
            "identity_gap": gap,
            "verdict_power": verdicts[power],
            "verdict_divergence": verdicts[divergence],
            "agree": agree,
        }
        for a, b, h_p, div_f, rate, gap, power, divergence, agree in zip(
            x1.tolist(), x2.tolist(), rep.h_p.tolist(), rep.div_f.tolist(), rep.phi_rate.tolist(),
            rep.identity_gap.tolist(), rep.verdict_power.tolist(), rep.verdict_divergence.tolist(),
            rep.agree.tolist(),
        )
    ]
    return {
        "kind": "dissipation_report",
        "system": name,
        "zero_tol": tol,
        "points": docs,
        "summary": {"points": len(docs), "disagreements": len(docs) - int(np.count_nonzero(rep.agree))},
    }


def cmd_report(args) -> int:
    entry = _get_system(args)
    points = [_parse_point(text, "--at") for text in args.at or ()]
    x1 = np.array([p.x1 for p in points], dtype=float)
    x2 = np.array([p.x2 for p in points], dtype=float)
    if args.grid is not None:
        grid_x1, grid_x2 = _parse_grid(args.grid)
        x1, x2 = np.concatenate((x1, grid_x1)), np.concatenate((x2, grid_x2))
    if len(x1) == 0:
        raise _UsageError("report needs at least one --at x1,x2 or a --grid")
    if entry.system.potential is None:
        raise _UsageError(
            f"system {entry.name!r} has no potential; dissipation power is unavailable"
        )
    tol = master_tol()
    rep = dissipation.report_many(entry.system, x1, x2, s_matrix=_s_matrix(entry), zero_tol=tol)
    if args.format == "json":
        _emit_json(_report_doc(entry.name, tol, x1, x2, rep), args.out)
        return 0
    header = [
        "x1", "x2", "h_p", "div_f", "phi_rate", "identity_gap",
        "verdict_power", "verdict_divergence", "agree",
    ]
    columns = [
        x1, x2, rep.h_p, rep.div_f, rep.phi_rate, rep.identity_gap,
        _VERDICT_CELLS[rep.verdict_power], _VERDICT_CELLS[rep.verdict_divergence],
        _BOOL_CELLS[rep.agree.view(np.int8)],
    ]
    _emit_csv(header, columns, args.out)
    return 0


def cmd_grid(args) -> int:
    entry = _get_system(args)
    x1, x2 = _parse_grid(args.grid)
    quantity = args.quantity
    system = entry.system
    needs_potential = quantity in ("potential", "dissipation_power", "phi_rate", "criteria_agreement")
    if needs_potential and system.potential is None:
        raise _UsageError(f"quantity {quantity!r} needs a potential, which {entry.name!r} lacks")

    if quantity == "vector_field":
        _emit_csv(["x1", "x2", "f1", "f2"], [x1, x2, *system.field.evaluate_many(x1, x2)], args.out)
        return 0
    if quantity == "potential":
        value = system.potential.evaluate_many(x1, x2)
    elif quantity == "divergence":
        value = system.field.divergence_many(x1, x2)
    elif quantity == "phi_rate":
        value = dissipation.phi_rate_many(system, x1, x2)
    elif quantity == "dissipation_power":
        value, _ = dissipation.power_many(system, x1, x2, _s_matrix(entry))
    else:  # criteria_agreement
        value = dissipation.report_many(system, x1, x2, s_matrix=_s_matrix(entry)).agree.astype(float)
    _emit_csv(["x1", "x2", "value"], [x1, x2, value], args.out)
    return 0


def cmd_catalog(args) -> int:
    systems = []
    for name in catalog.list_systems():
        entry = catalog.get(name)
        systems.append(
            {
                "name": name,
                "kind": "linear" if entry.system.is_linear else "analytic",
                "provenance": entry.provenance,
            }
        )
    if args.format == "json":
        _emit_json({"kind": "catalog", "systems": systems}, args.out)
        return 0
    header = ["name", "kind", "provenance"]
    _emit_csv(header, [[_csv_quoted(s[key]) for s in systems] for key in header], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aodecomp",
        description="Decompose planar systems and audit their dissipation criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, fmt: bool = True) -> None:
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p_dec = sub.add_parser("decompose", help="matrix or pointwise decomposition")
    p_dec.add_argument("--system", default=None, help="catalog system name")
    p_dec.add_argument("--matrix", default=None, help="a11,a12,a21,a22 (row-major)")
    p_dec.add_argument("--d", default=None, help="d11,d12,d22 diffusion entries")
    p_dec.add_argument("--q", default=None, help="gyration coefficient override")
    p_dec.add_argument("--at", default=None, help="x1,x2 for a pointwise decomposition")
    add_common(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_sim = sub.add_parser("simulate", help="integrate a trajectory to CSV")
    p_sim.add_argument("--system", required=True)
    p_sim.add_argument("--x0", required=True, help="x1,x2 initial state")
    p_sim.add_argument("--dt", type=float, default=dynamics.DEFAULT_DT)
    p_sim.add_argument("--t-end", type=float, default=10.0, dest="t_end")
    p_sim.add_argument("--polar", action="store_true", help="integrate the builtin polar form")
    add_common(p_sim, fmt=False)
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="dissipation criteria at points or on a grid")
    p_rep.add_argument("--system", required=True)
    p_rep.add_argument("--at", action="append", default=None, help="x1,x2 (repeatable)")
    p_rep.add_argument("--grid", default=None, help="xmin,xmax,ymin,ymax,nx,ny")
    add_common(p_rep)
    p_rep.set_defaults(func=cmd_report)

    p_grd = sub.add_parser("grid", help="sample a quantity over a rectangular grid")
    p_grd.add_argument("--system", required=True)
    p_grd.add_argument("--grid", required=True, help="xmin,xmax,ymin,ymax,nx,ny")
    p_grd.add_argument("--quantity", required=True, choices=QUANTITIES)
    add_common(p_grd, fmt=False)
    p_grd.set_defaults(func=cmd_grid)

    p_cat = sub.add_parser("catalog", help="list builtin systems")
    add_common(p_cat)
    p_cat.set_defaults(func=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_fold_comma_values(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"aodecomp: {exc}", file=sys.stderr)
        return 1
    except _InconsistentRequest as exc:
        print(f"aodecomp: {exc}", file=sys.stderr)
        return 2
    except AodecompError as exc:
        print(f"aodecomp: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"aodecomp: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
