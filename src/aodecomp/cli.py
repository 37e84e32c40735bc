"""Command-line surface: decompose, simulate, report, grid, catalog.

Documents are JSON with a fixed key schema or CSV with '.' decimals, ','
separators and '\\n' line endings; floats are serialized with shortest
round-trip precision so parse(emit(x)) == x. All outputs are deterministic
for identical arguments.

``grid`` and ``report`` sample the plane through one helper, ``_sampled``:
it turns each input (an ``--at`` point or a ``--grid``) into points, runs
the batch computation on all of them, drops the dense points and returns the
factored coordinates with the result. Each ``grid`` quantity is one entry of
``_GRID_QUANTITIES``, which gives its CSV header and its batch function.

Every CSV and every report JSON document is rendered as pieces of bytes by
``render``, which does no I/O; ``cmd_report`` hands it the factored
coordinates and the report columns, for either format. ``_write_pieces``
sends each piece out as soon as it is laid out, as the same bytes to an
``--out`` file or to stdout's binary buffer, so no document is ever held
whole as one string or bytes object. Every other JSON document goes
through ``json.dumps`` and is written whole. No document holds NaN or an
infinity: a batch quantity that is not finite raises NotFiniteQuantity,
which exits 1 with no output and a message naming the quantity and the flag
and value of the input that holds the first row at which it is not finite.
A batch stops at the first quantity that fails, so where several inputs
overflow the named one can be a later one. ``json.dumps(allow_nan=False)``
guards every other JSON document.

Exit codes: 0 success, 1 usage or input error, 2 inconsistent decomposition
request, 3 numerical blow-up. A ``--grid`` of more than ``MAX_GRID_POINTS``
points and a ``simulate`` of more than ``dynamics.MAX_STEPS`` steps are
input errors, refused before anything is allocated. Every document, the
``--help`` text included, goes out through ``_write_pieces``; a stdout it
cannot write (``>&-``, ``| head -1``, a closed pipe, a full device) gets
exit 1 and one ``aodecomp:`` line on stderr, with no traceback. A stderr
that cannot be written (``2>&-``) loses the ``aodecomp:`` line, never the
exit code; argparse's usage and error text then go to a sink, not to stdout.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import partial
from typing import Iterable

import numpy as np

from . import catalog, dissipation, dynamics, field, linear, render
from .core import DiffusionParams, Matrix2, Point2, SystemSpec
from .errors import AodecompError, NonFinite, NotFiniteQuantity
from .tolerances import LYAPUNOV_RESIDUAL_TOL, master_tol

# Flags whose value is a comma list that may begin with a negative number;
# their values are folded into --flag=value before argparse sees them.
_COMMA_FLAGS = {"--matrix", "--d", "--at", "--x0", "--grid", "--q"}

# Each grid quantity, in --quantity order: its CSV value header and the batch
# function of (system, x1, x2) that returns its value columns. Every catalog
# system has a potential (catalog._build_registry refuses one without).
_GRID_QUANTITIES = {
    "potential": (["value"], lambda system, x1, x2: [system.potential.evaluate_many(x1, x2)]),
    "vector_field": (["f1", "f2"], lambda system, x1, x2: system.field.evaluate_many(x1, x2)),
    "divergence": (["value"], lambda system, x1, x2: [system.field.divergence_many(x1, x2)]),
    "dissipation_power": (["value"], lambda system, x1, x2: dissipation.power_many(system, x1, x2)[:1]),
    "phi_rate": (["value"], lambda system, x1, x2: [dissipation.phi_rate_many(system, x1, x2)]),
    "criteria_agreement": (
        ["value"], lambda system, x1, x2: [dissipation.report_many(system, x1, x2).agree.astype(float)]
    ),
}
QUANTITIES = tuple(_GRID_QUANTITIES)

# Most points a --grid may have (nx * ny), checked before any allocation. A
# document is written a block at a time, and keeps one formatted row a distinct
# value, so its peak is set by compute and those rows: a 1,000,000-point report
# peaked at 150 MB resident as JSON (a 328 MB file) and as CSV (131 MB).
# The benchmark's largest grid has about 26k points.
MAX_GRID_POINTS = 1_000_000

class _UsageError(Exception):
    """Invalid arguments or input values; mapped to exit code 1."""


class _InconsistentRequest(Exception):
    """Decomposition request with no valid gyration; mapped to exit code 2."""


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise _UsageError(f"{what} expects {n} comma-separated values, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise _UsageError(f"could not parse {what} {text!r}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise _UsageError(f"{what} values must be finite, got {text!r}")
    return values


def _parse_point(text: str, what: str) -> Point2:
    return Point2(*_parse_floats(text, 2, what))


def _parse_grid(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The axes of an xmin,xmax,ymin,ymax,nx,ny grid: its nx x values and its ny y values."""
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
    if nx * ny > MAX_GRID_POINTS:
        raise _UsageError(f"--grid {text} has nx * ny = {nx * ny} points, more than {MAX_GRID_POINTS}")
    with np.errstate(all="ignore"):  # a span that overflows yields inf/nan, rejected below
        xs = xmin + (xmax - xmin) * np.arange(nx) / (nx - 1)
        ys = ymin + (ymax - ymin) * np.arange(ny) / (ny - 1)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise _UsageError(f"the coordinates of --grid {text} overflow float64")
    return xs, ys


def _grid_points(axes: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The points of grids given by their (x axis, y axis), one grid after another, as x1, x2 columns.

    The rows of each grid run y-outer, x-inner.
    """
    x1 = np.concatenate([np.tile(xs, len(ys)) for xs, ys in axes])
    x2 = np.concatenate([np.repeat(ys, len(xs)) for xs, ys in axes])
    return x1, x2


def _factored_points(axes: list[tuple[np.ndarray, np.ndarray]]) -> list[render.Factored]:
    """The columns of ``_grid_points(axes)`` factored: the axes one after another, and each row's index into them.

    The indexes are int32: ``MAX_GRID_POINTS`` and ``dynamics.MAX_STEPS``
    keep every document to about a million rows.
    """
    index_axes, x_start, y_start = [], 0, 0
    for xs, ys in axes:
        x_index = np.arange(x_start, x_start + len(xs), dtype=np.int32)
        index_axes.append((x_index, np.arange(y_start, y_start + len(ys), dtype=np.int32)))
        x_start, y_start = x_start + len(xs), y_start + len(ys)
    return [
        render.Factored(np.concatenate(axis), inverse)
        for axis, inverse in zip(zip(*axes), _grid_points(index_axes))
    ]


@contextmanager
def _naming_overflow(name: str, sources: list[tuple[str, str, int]]):
    """Turn a NotFiniteQuantity raised in the block into a _UsageError naming the input that holds its row.

    ``sources`` holds (flag, value, rows) per input, in the order of the
    rows of the batch the block computes. The error propagates unchanged
    when its row lies past every input, and so does any other ValueError.
    """
    try:
        yield
    except NotFiniteQuantity as exc:
        end = 0
        for flag, value, rows in sources:
            end += rows
            if exc.row < end:
                raise _UsageError(f"the {exc.quantity} of {name!r} overflows float64 at {flag} {value}") from None
        raise


def _sampled(name: str, sources: list[tuple[str, str, np.ndarray, np.ndarray]], compute):
    """``compute(x1, x2)`` over the points of ``sources``, with the factored coordinate columns of those points.

    ``sources`` holds (flag, value, x axis, y axis) per input, one grid after
    another (an ``--at`` point is a grid of one point). A quantity that is
    not finite names the input that holds its row (``_naming_overflow``).
    The dense points are dropped before the row indexes are built.
    """
    axes = [(xs, ys) for _, _, xs, ys in sources]
    x1, x2 = _grid_points(axes)
    with _naming_overflow(name, [(flag, value, len(xs) * len(ys)) for flag, value, xs, ys in sources]):
        result = compute(x1, x2)
    del x1, x2  # not alive next to the row indexes of the factored columns
    return _factored_points(axes), result


def _fold_comma_values(argv: list[str]) -> list[str]:
    """Rewrite ['--matrix', '-1,0,0,-2'] as ['--matrix=-1,0,0,-2'].

    argparse would otherwise read a value starting with '-' as an option.
    """
    out: list[str] = []
    it = iter(argv)
    for token in it:
        value = next(it, None) if token in _COMMA_FLAGS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def _complain(message: str) -> None:
    """Write ``aodecomp: message`` as one line on stderr.

    A stderr that is closed (``2>&-``, which leaves ``sys.stderr`` None) or
    cannot be written loses the line, and the exit code stands.
    """
    if sys.stderr is None:
        return
    try:
        print(f"aodecomp: {message}", file=sys.stderr, flush=True)
    except OSError:
        pass


def _write_pieces(pieces: Iterable, out: str | None) -> None:
    """Send a document's pieces of UTF-8 text (``bytes`` or uint8 arrays) out one at a time.

    Each piece goes out as soon as the iterator yields it, and is dropped
    before the next one is made (``writelines`` holds no piece between
    calls), so the document is never joined. The ``out`` file and stdout
    take the same bytes: stdout's text layer is flushed and the pieces go to
    its binary buffer; only a text stream with no buffer, such as
    ``io.StringIO``, gets them decoded. It is the one writer of stdout, for
    every document and the ``--help`` text. A stdout that cannot be written
    is an error, exit 1: one closed at start-up (``>&-``, which leaves
    ``sys.stdout`` None), a pipe whose reader stopped early or has closed, or
    a full device. After a failed write stdout is pointed at the null device,
    so the interpreter's last flush of what it still buffers fails no more.
    """
    if out is None:
        stdout = sys.stdout
        if stdout is None:
            raise _UsageError("cannot write to stdout: it is closed")
        try:
            stdout.flush()
            binary = getattr(stdout, "buffer", None)
            if binary is None:
                stdout.writelines(map(partial(str, encoding="utf-8"), pieces))
                stdout.flush()
            else:
                binary.writelines(pieces)
                binary.flush()
        except OSError as exc:  # BrokenPipeError, or ENOSPC and the like
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout.fileno())
            os.close(devnull)
            raise _UsageError(f"cannot write to stdout: {exc.strerror or exc}") from None
        return
    try:
        with open(out, "wb") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise _UsageError(f"cannot write --out {out!r}: {exc.strerror or exc}") from None


def _write_output(text: str, out: str | None) -> None:
    _write_pieces([text.encode()], out)


def _emit_json(doc: dict, out: str | None) -> None:
    # NaN and Infinity are not JSON: dumps raises ValueError, which exits 1
    _write_output(json.dumps(doc, indent=2, allow_nan=False) + "\n", out)


def _emit_csv(header: list[str], columns: list, out: str | None, trailer: str | None = None) -> None:
    """Write equal-length columns as CSV (``render.csv_document``): every cell is formatted before ``out`` is opened."""
    _write_pieces(render.csv_document(header, columns, trailer), out)


def _pointwise_doc(system: SystemSpec, text: str, name: str) -> dict:
    at = _parse_point(text, "--at")
    with _naming_overflow(name, [("--at", text, 1)]):  # field or gradient not finite
        pd = field.point_decomposition(system, at)
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


def _matrix_decomposition(args) -> tuple[linear.LinearDecomposition, linear.QSolution]:
    """The decomposition of ``--matrix`` under ``--d`` (default I) at the solved q or a valid ``--q``, and the solution.

    No q satisfying the gyration constraint exits 2; a ``--q`` that violates it, or float64 overflow, exits 1.
    """
    a = Matrix2(*_parse_floats(args.matrix, 4, "--matrix"))
    d = DiffusionParams(*_parse_floats(args.d, 3, "--d")) if args.d is not None else DiffusionParams.identity()
    sol = linear.solve_gyration(a, d)
    if sol.branch == linear.INCONSISTENT:
        raise _InconsistentRequest(
            f"no gyration value satisfies the constraint for this diffusion: "
            f"{sol.note}; unmatched right-hand side {sol.residual!r}"
        )
    q = sol.q
    if args.q is not None:
        q = _parse_floats(args.q, 1, "--q")[0]
        try:
            residual = linear.lyapunov_equation_residual(a, d, q)
        except ValueError:  # a product of the residual got a non-finite entry: q's, unless q = 0 overflows too
            try:
                linear.lyapunov_equation_residual(a, d, 0.0)
                flag, value = "--q", args.q
            except ValueError:
                flag, value = "--matrix", args.matrix
            raise _UsageError(
                f"the gyration constraint residual of 'custom' overflows float64 at {flag} {value}"
            ) from None
        if residual > LYAPUNOV_RESIDUAL_TOL * a.max_abs() * (1.0 + d.max_abs()):  # linear in A, and in q and D
            raise _UsageError(
                f"--q {args.q} violates the gyration constraint "
                f"(residual {residual!r}); the {sol.branch} solution is {sol.q!r}"
            )
    try:
        return linear.assemble_decomposition(a, d, q), sol
    except ValueError:  # a matrix of the decomposition got a non-finite entry
        raise _UsageError(
            f"the decomposition of --matrix {args.matrix} overflows float64: "
            "a gyration, friction or potential matrix entry is not finite"
        ) from None


def cmd_decompose(args) -> int:
    if args.system is None and args.matrix is None:
        raise _UsageError("decompose needs --system NAME or --matrix a11,a12,a21,a22")

    if args.system is not None:
        for flag, value in (("--matrix", args.matrix), ("--d", args.d), ("--q", args.q)):
            if value is not None:
                raise _UsageError(f"decompose --system takes no {flag}: a catalog system has its own decomposition")
        entry = catalog.get(args.system)
        name, system, dec, sol = entry.name, entry.system, entry.decomposition, None
    else:
        name, system, (dec, sol) = "custom", None, _matrix_decomposition(args)

    if args.at is not None:
        doc = _pointwise_doc(system or dec.system(name), args.at, name)
    elif dec is None:
        raise _UsageError(f"system {name!r} is not linear; pointwise decomposition needs --at x1,x2")
    else:
        sol = sol or linear.solve_gyration(dec.a, dec.diffusion)  # a catalog entry's, solved for this document only
        doc = _linear_doc(name, dec, sol.branch, sol.note)

    if args.format == "json":
        _emit_json(doc, args.out)
    else:
        keys, cells = zip(*render.flatten_for_csv(doc))
        _emit_csv(["key", "value"], [keys, cells], args.out)
    return 0


def cmd_simulate(args) -> int:
    entry = catalog.get(args.system)
    x0 = _parse_point(args.x0, "--x0")
    dt, t_end = args.dt, args.t_end
    if not (dt > 0.0 and math.isfinite(t_end) and t_end >= dt):
        raise _UsageError(f"need dt > 0 and a finite t_end >= dt, got dt={dt!r}, t_end={t_end!r}")
    if not t_end / dt <= dynamics.MAX_STEPS:
        raise _UsageError(
            f"--t-end {t_end!r} / --dt {dt!r} asks for more than {dynamics.MAX_STEPS} steps; "
            "raise --dt or lower --t-end"
        )

    if args.polar:
        if entry.name != catalog.HOPF:
            raise _UsageError(f"--polar applies only to {catalog.HOPF!r}")
        r0 = x0.norm()
        if r0 <= 0.0:
            raise _UsageError("--polar needs a nonzero initial state")
        if r0 == math.inf:
            raise _UsageError(f"the radius of --x0 {args.x0} overflows float64")
        system, start = catalog.HOPF_POLAR, Point2(r0, math.atan2(x0.x2, x0.x1))
    else:
        system, start = entry.system, x0
    # a sampled column not finite at x0, the first row; every later state lies within BLOWUP_LIMIT
    with _naming_overflow(entry.name, [("--x0", args.x0, 1)]):
        try:
            traj = dynamics.integrate(system, start, dt=dt, t_end=t_end)
            failure = None
        except NonFinite as exc:
            traj, failure = exc.trajectory, str(exc)

    columns = [traj.t, traj.x[:, 0], traj.x[:, 1]]
    if args.polar:
        header = ["t", "r", "theta"]
    else:
        header = ["t", "x1", "x2", "phi", "phi_rate", "h_p", "div_f"]
        columns += [traj.phi, traj.phi_rate, traj.h_p, traj.div_f]
    _emit_csv(header, columns, args.out, trailer=None if failure is None else f"# truncated: {failure}")
    if failure is None:
        return 0
    _complain(failure)
    return 3


def cmd_report(args) -> int:
    entry = catalog.get(args.system)
    sources = []  # (flag, value, x axis, y axis): an --at point is a grid of one point
    for text in args.at or ():
        p = _parse_point(text, "--at")
        sources.append(("--at", text, np.array([p.x1]), np.array([p.x2])))
    if args.grid is not None:
        sources.append(("--grid", args.grid, *_parse_grid(args.grid)))
    if not sources:
        raise _UsageError("report needs at least one --at x1,x2 or a --grid")
    tol = master_tol()
    coordinates, rep = _sampled(entry.name, sources, partial(dissipation.report_many, entry.system, zero_tol=tol))
    if args.format == "json":
        _write_pieces(render.report_json(entry.name, tol, coordinates, rep), args.out)
    else:
        _emit_csv(render.REPORT_HEADER, render.report_columns(coordinates, rep), args.out)
    return 0


def cmd_grid(args) -> int:
    entry = catalog.get(args.system)
    header, batch = _GRID_QUANTITIES[args.quantity]
    sources = [("--grid", args.grid, *_parse_grid(args.grid))]
    coordinates, values = _sampled(entry.name, sources, partial(batch, entry.system))
    _emit_csv(["x1", "x2", *header], [*coordinates, *values], args.out)
    return 0


def cmd_catalog(args) -> int:
    systems = []
    for name in catalog.list_systems():
        entry = catalog.get(name)
        systems.append(
            {
                "name": name,
                "kind": "linear" if entry.decomposition is not None else "analytic",
                "provenance": entry.provenance,
            }
        )
    if args.format == "json":
        _emit_json({"kind": "catalog", "systems": systems}, args.out)
        return 0
    header = ["name", "kind", "provenance"]
    _emit_csv(header, [[render.csv_quoted(s[key]) for s in systems] for key in header], args.out)
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
    steps = f"t_end / dt is at most {dynamics.MAX_STEPS} steps"
    p_sim.add_argument("--dt", type=float, default=dynamics.DEFAULT_DT, help=f"RK4 step ({steps})")
    p_sim.add_argument("--t-end", type=float, default=10.0, dest="t_end", help=f"end time ({steps})")
    p_sim.add_argument("--polar", action="store_true", help="integrate the builtin polar form")
    add_common(p_sim, fmt=False)
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="dissipation criteria at points or on a grid")
    p_rep.add_argument("--system", required=True)
    p_rep.add_argument("--at", action="append", default=None, help="x1,x2 (repeatable)")
    grid_help = f"xmin,xmax,ymin,ymax,nx,ny with nx * ny at most {MAX_GRID_POINTS}"
    p_rep.add_argument("--grid", default=None, help=grid_help)
    add_common(p_rep)
    p_rep.set_defaults(func=cmd_report)

    p_grd = sub.add_parser("grid", help="sample a quantity over a rectangular grid")
    p_grd.add_argument("--system", required=True)
    p_grd.add_argument("--grid", required=True, help=grid_help)
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
    help_text = io.StringIO()
    try:
        # argparse prints --help into the buffer and usage errors on stderr, or on a sink when stderr is closed
        with redirect_stdout(help_text), redirect_stderr(sys.stderr or io.StringIO()):
            args = parser.parse_args(_fold_comma_values(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help, which is a document like any other
        if exc.code != 0:
            return 1
        # --help: a command whose whole document is the captured help
        args = argparse.Namespace(func=lambda _: _write_output(help_text.getvalue(), None) or 0)
    try:
        return args.func(args)
    except _InconsistentRequest as exc:
        _complain(str(exc))
        return 2
    except (_UsageError, AodecompError, ValueError, OverflowError) as exc:
        _complain(str(exc))
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
