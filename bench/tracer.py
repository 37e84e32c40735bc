"""Per-layer tracing of aodecomp, installed from outside by patching module attributes.

Every wrapped call adds to an aggregate (calls, total ns, self ns) for its
span name; no span object is created per call, because the per-point calls
(divergence, phi_rate, report) run tens of thousands of times per request.
A span's self time is its duration minus the time of the wrapped spans that
ran inside it, so the lazy compute that ``cmd_grid`` feeds into ``_emit_csv``
is charged to the compute spans and not to the serializer.

Some compute cannot be wrapped from outside, because the CLI reaches it
through closures held by frozen catalog objects or through local generators:
``ScalarField.evaluate`` (the potential closures behind ``grid --quantity
potential``), ``VectorField.evaluate`` (``grid --quantity vector_field``,
evaluated inside ``cmd_grid`` before the emit), the per-cell ``_csv_cell``
formatting and the row generators of ``cmd_simulate`` and ``cmd_grid``.
Their time lands in the self time of the span they run in: ``cli.emit_csv``
for lazy rows, ``cli.main`` otherwise.

Span names and what they wrap:

    cli.main          cli.main, one per request (its self time is the residual)
    cli.parse         cli.build_parser and the returned parser's parse_args
    cli.emit_csv      cli._emit_csv
    cli.emit_json     cli._emit_json
    cli.write         cli._write_output
    dissipation.*     dissipation.report, phi_rate, divergence
    field.point_decomposition
    dynamics.integrate, dynamics.integrate_polar
    linear.solve_gyration, linear.assemble_decomposition
"""

from __future__ import annotations

import contextlib
import gc
import os
import time

from aodecomp import cli, core, dissipation, dynamics, field, linear
from aodecomp.errors import NonFinite

COUNTS = (
    "cli.emit_csv_cells",
    "cli.emit_json_bytes",
    "cli.write_bytes",
    "dynamics.integrate_steps",
)


class Tracer:
    """Aggregating span timer; ``installed()`` patches aodecomp, ``snapshot`` reads one pass."""

    def __init__(self):
        self._spans: dict[str, list[int]] = {}
        self._child = [0]
        self._counts = dict.fromkeys(COUNTS, 0)
        self._point2 = [0]
        self._gc = [0, 0]
        self._gc_start = 0
        self._csv: tuple[int, bool] | None = None
        self._in_json = False
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for stat in self._spans.values():
            stat[:] = [0, 0, 0]
        for name in self._counts:
            self._counts[name] = 0
        self._point2[0] = 0
        self._gc[:] = [0, 0]

    def snapshot(self) -> dict:
        counts = dict(self._counts)
        counts["core.point2_constructed"] = self._point2[0]
        return {
            "spans": {name: list(stat) for name, stat in self._spans.items()},
            "counts": counts,
            "gc_collections": self._gc[0],
            "gc_pause_ns": self._gc[1],
        }

    def span(self, name: str, fn):
        stat = self._spans.setdefault(name, [0, 0, 0])
        child = self._child
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            child.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child.pop()
                child[-1] += elapsed

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch aodecomp for the duration of the block, then restore every attribute."""
        self._install()
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            for obj, name, original in reversed(self._patched):
                setattr(obj, name, original)
            self._patched.clear()

    def _patch(self, obj, name: str, new) -> None:
        self._patched.append((obj, name, getattr(obj, name)))
        setattr(obj, name, new)

    def _install(self) -> None:
        counts = self._counts
        build_parser = cli.build_parser

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = self.span("cli.parse", parser.parse_args)
            return parser

        self._patch(cli, "build_parser", self.span("cli.parse", traced_build_parser))
        self._patch(cli, "main", self.span("cli.main", cli.main))

        emit_csv = self.span("cli.emit_csv", cli._emit_csv)

        def counted_emit_csv(header, rows, out, trailer=None):
            self._csv = (len(header), trailer is not None)
            try:
                emit_csv(header, rows, out, trailer)
            finally:
                self._csv = None

        emit_json = self.span("cli.emit_json", cli._emit_json)

        def counted_emit_json(doc, out):
            self._in_json = True
            try:
                emit_json(doc, out)
            finally:
                self._in_json = False

        write = self.span("cli.write", cli._write_output)

        def counted_write(text, out):
            write(text, out)
            size = os.stat(out).st_size if out is not None else len(text.encode())
            counts["cli.write_bytes"] += size
            if self._in_json:
                counts["cli.emit_json_bytes"] += size
            if self._csv is not None:
                columns, trailer = self._csv
                counts["cli.emit_csv_cells"] += (text.count("\n") - 1 - trailer) * columns

        self._patch(cli, "_emit_csv", counted_emit_csv)
        self._patch(cli, "_emit_json", counted_emit_json)
        self._patch(cli, "_write_output", counted_write)

        for module, name in (
            (dissipation, "report"),
            (dissipation, "phi_rate"),
            (dissipation, "divergence"),
            (field, "point_decomposition"),
            (linear, "solve_gyration"),
            (linear, "assemble_decomposition"),
        ):
            self._patch(module, name, self.span(f"{module.__name__.split('.')[-1]}.{name}", getattr(module, name)))
        for name in ("integrate", "integrate_polar"):
            self._patch(dynamics, name, self.span(f"dynamics.{name}", self._count_steps(getattr(dynamics, name))))

        point2 = self._point2
        post_init = core.Point2.__post_init__

        def counted_post_init(p):
            point2[0] += 1
            post_init(p)

        self._patch(core.Point2, "__post_init__", counted_post_init)
        gc.callbacks.append(self._on_gc)

    def _count_steps(self, fn):
        def wrapper(*args, **kwargs):
            try:
                traj = fn(*args, **kwargs)
            except NonFinite as exc:
                self._counts["dynamics.integrate_steps"] += len(exc.trajectory) - 1
                raise
            self._counts["dynamics.integrate_steps"] += len(traj) - 1
            return traj

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self._gc[0] += 1
            self._gc[1] += time.perf_counter_ns() - self._gc_start
