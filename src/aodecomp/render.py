"""The byte serializer: CSV and report JSON documents as pieces of bytes.

Every CSV and every report JSON document is one list of columns, rendered
as bytes by ``_render`` between the constant pieces of its row: the CSV
separators (``csv_document``), or the report-JSON point text in the exact
layout of ``json.dumps(doc, indent=2)`` (``report_json``). A report has one
column list for either format (``report_columns``). The floats of a document
are formatted before any row is laid out and before the output is opened
(``_float_cells``), so a document that cannot be formatted leaves no partial
output. Grid coordinates arrive factored (``Factored``), as the grid's axes
and each row's index into them, so each axis value is formatted once and
the coordinate columns are never sorted. The computed quantities and the
``simulate`` columns are sorted, and each distinct value is formatted once.
When the document has 256 values to format or more, all of them go to one
``floatfmt.repr_many`` call, which returns exactly what ``repr`` prints as
NUL-padded byte rows; fewer go through ``repr`` into the same rows. Each
float column keeps only its formatted distinct rows and an int32 index of
each row into them (no index when the rows are in order), so a document
holds one formatted row per distinct value, not one per cell. Verdict and
flag cells come from small byte tables. ``_laid_out`` then lays the rows out
a block of ``_BLOCK_ROWS`` at a time in one byte buffer: copies of a template
row built once a document, each column's cells gathered through its index
into their slots, and every NUL dropped at once, so no Python string is made
per float cell. CSV folds -0.0 to 0.0; report JSON keeps it.

This module does no I/O. A document comes back as an iterator of pieces
(``bytes`` or uint8 arrays) that lays out each block only when it is asked
for the next piece, so the caller can write every block and drop it before
the next one is made.
"""

from __future__ import annotations

import json
from typing import Iterator, NamedTuple

import numpy as np

from .dissipation import VERDICTS, ReportColumns

# CSV and report JSON text is laid out and written this many rows at a time (see
# _render), which bounds the assembly buffer; the floats are formatted for the whole document.
_BLOCK_ROWS = 2048
# Distinct floats of a document, over all its float columns, from which one
# numpy formatting pass (0.14-0.25 ms however few values it gets) is cheaper
# than repr per value; on a 2-vCPU KVM guest the two broke even at 192-256
# (three runs of 20 documents of grid_sweep values at each size from 64 to 512).
_NUMPY_MIN_VALUES = 256
_VERDICT_CELLS = np.array([verdict.encode() for verdict in VERDICTS])
_BOOL_CELLS = np.array([b"false", b"true"])

# The report's CSV header, in the order of report_columns.
REPORT_HEADER = [
    "x1", "x2", "h_p", "div_f", "phi_rate", "identity_gap",
    "verdict_power", "verdict_divergence", "agree",
]
# A report document in the layout of json.dumps(doc, indent=2): the head, one
# point (its %s slots filled in order, each point followed by ",\n" but the
# last) and the tail.
_REPORT_HEAD = '{\n  "kind": "dissipation_report",\n  "system": %s,\n  "zero_tol": %s,\n  "points": [\n'
_REPORT_POINT = (
    '    {\n      "at": [\n        %s,\n        %s\n      ],\n      "h_p": %s,\n      "div_f": %s,\n'
    '      "phi_rate": %s,\n      "identity_gap": %s,\n      "verdict_power": "%s",\n'
    '      "verdict_divergence": "%s",\n      "agree": %s\n    }'
)
_REPORT_POINT_BYTES = [piece.encode() for piece in (_REPORT_POINT + ",\n").split("%s")]
_REPORT_TAIL = '\n  ],\n  "summary": {\n    "points": %d,\n    "disagreements": %d\n  }\n}\n'


class Factored(NamedTuple):
    """A float64 column as ``values`` and each row's index into them, so row i holds ``values[inverse[i]]``."""

    values: np.ndarray
    inverse: np.ndarray


def _distinct(column: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """A float64 column's distinct values, told apart by bit pattern, and each row's int32 index into them.

    A column with no repeats comes back as it is, with no index, so its rows
    keep their order and are never sorted into place.
    """
    bits = column.view(np.int64)
    ordered = np.sort(bits)
    distinct = np.empty(len(ordered), dtype=bool)
    distinct[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    if distinct.all():
        return column, None
    ordered = ordered[distinct]
    return ordered.view(np.float64), np.searchsorted(ordered, bits).astype(np.int32)


def _float_cells(columns: list, fold_negative_zero: bool) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """``repr`` of the values of each float column of a document, as NUL-padded uint8 rows and a row index.

    Each column comes back as ``(rows, index)``: its row i prints as
    ``rows[index[i]]``, or as ``rows[i]`` when ``index`` is None. A column
    is one of two kinds:

    - a ``Factored`` column, such as grid coordinates: its values are
      formatted as they are, a repeated one twice, and its inverse is the
      index, with no sort;
    - a float64 array, such as a computed quantity: each of its distinct
      values (see ``_distinct``) is formatted once, and a column with no
      repeats keeps its rows in order, with no index.

    With ``fold_negative_zero`` a -0.0 prints as ``0.0``. When the document
    has at least ``_NUMPY_MIN_VALUES`` values to format, all of them go
    through one ``floatfmt.repr_many`` call; otherwise through ``repr``, and
    floatfmt is not loaded. Every column's rows are a view of that one
    formatted array, and each column's distinct values are dropped once
    they are joined into the formatter's input.
    """
    sets = [column if isinstance(column, Factored) else _distinct(column) for column in columns]
    sizes = [len(values) for values, _ in sets]
    indexes = [index for _, index in sets]
    values = np.concatenate([values for values, _ in sets])
    del sets
    if fold_negative_zero:
        values += 0.0  # -0.0 + 0.0 is 0.0; every other value is unchanged
    if len(values) >= _NUMPY_MIN_VALUES:
        from . import floatfmt  # on first use, so start-up does not load it

        formatted = floatfmt.repr_many(values)
    else:
        # the rows floatfmt gives, 24 bytes wide: the longest repr of a double
        formatted = _text_cells(np.array(list(map(repr, values.tolist())), dtype="S24"))
    del values
    return list(zip(np.split(formatted, np.cumsum(sizes[:-1])), indexes))


def _text_cells(column) -> np.ndarray:
    """A column of ready cells (an ``S`` array, or strings encoded as UTF-8) as NUL-padded uint8 rows."""
    if not isinstance(column, np.ndarray):
        if "\0" in "".join(column):
            raise ValueError("a CSV cell holds a NUL character")
        column = np.array([cell.encode() for cell in column], dtype=bytes)
    column = np.ascontiguousarray(column)
    return column.view(np.uint8).reshape(len(column), column.itemsize)


def _render(
    head: bytes, pieces: list[bytes], columns: list, tail: bytes, fold_negative_zero: bool, trim: int = 0
) -> Iterator:
    """A document's pieces: ``head``, its rows ``pieces[0] columns[0] pieces[1] ... pieces[-1]`` and ``tail``.

    A column is one of three kinds:

    - a ``Factored`` column (grid coordinates), its values and each row's
      index into them;
    - a float64 array (computed quantities, ``simulate`` columns);
    - ready cells, as an ``S`` array or as a list or tuple of strings.

    The two float kinds print in shortest round-trip form, each through
    ``_float_cells``, with -0.0 as ``0.0`` if ``fold_negative_zero``. Every
    column is formatted here, before the call returns; the returned iterator
    then lays the rows out one block of ``_BLOCK_ROWS`` at a time, each block
    a uint8 array, with the last ``trim`` bytes of the last row left out.
    """
    floats = [
        i for i, column in enumerate(columns)
        if isinstance(column, Factored) or isinstance(column, np.ndarray) and column.dtype.kind == "f"
    ]
    formatted = dict(zip(floats, _float_cells([columns[i] for i in floats], fold_negative_zero))) if floats else {}
    cells = [formatted[i] if i in formatted else (_text_cells(column), None) for i, column in enumerate(columns)]
    return _laid_out(head, pieces, cells, tail, trim)


def _laid_out(head: bytes, pieces: list[bytes], cells: list[tuple], tail: bytes, trim: int) -> Iterator:
    """``head``, the rows of ``cells`` between ``pieces`` a block at a time, and ``tail``; see ``_render``.

    ``cells`` holds each column's NUL-padded uint8 rows and its row index, as
    ``_float_cells`` returns them. A block starts as copies of one template
    row, built once a document: the constant pieces with zeroed cell slots.
    Each column's cells are gathered through its index into their slots,
    and every NUL is dropped at once. A gather moves each cell as one void
    item: on a 2,048-row column this took about half the time of ``take`` of
    the uint8 rows with the slot as ``out``, which numpy fills through a
    hidden contiguous copy.
    """
    template, slots = [pieces[0]], []
    for (rows, _), piece in zip(cells, pieces[1:]):
        start = sum(map(len, template))
        slots.append(slice(start, start + rows.shape[1]))
        template += [bytes(rows.shape[1]), piece]
    template = np.frombuffer(b"".join(template), dtype=np.uint8)
    cells = [(rows.view(f"V{rows.shape[1]}")[:, 0], index) for rows, index in cells]
    items, index = cells[0]
    count = len(items if index is None else index)
    yield head
    for start in range(0, count, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, count)
        buffer = np.empty((stop - start, len(template)), dtype=np.uint8)
        buffer[:] = template
        for (items, index), slot in zip(cells, slots):
            column = buffer[:, slot].view(items.dtype)[:, 0]
            column[:] = items[start:stop] if index is None else items.take(index[start:stop])
        flat = buffer.ravel()
        block = flat[flat != 0]
        del buffer, flat  # not alive while the block is written
        yield block if stop < count else block[:len(block) - trim]
        del block  # not alive next to the buffers of the next block
    yield tail


def csv_document(header: list[str], columns: list, trailer: str | None = None) -> Iterator:
    """The pieces of equal-length columns as CSV: ``header``, the rows with -0.0 as 0.0, and any ``trailer`` line."""
    head = (",".join(header) + "\n").encode()
    tail = b"" if trailer is None else (trailer + "\n").encode()
    separators = [b""] + [b","] * (len(columns) - 1) + [b"\n"]
    return _render(head, separators, columns, tail, fold_negative_zero=True)


def _doc_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value) + 0.0)
    return str(value)


def flatten_for_csv(doc: dict, prefix: str = "") -> list[tuple[str, str]]:
    """A JSON document's (key, value) CSV cells: nested keys joined by '.', list items by ';'."""
    rows: list[tuple[str, str]] = []
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(flatten_for_csv(value, prefix=f"{name}."))
            continue
        if isinstance(value, list):
            # a list holds scalars, or rows of scalars for a matrix
            flat = [v for item in value for v in (item if isinstance(item, list) else [item])]
            cell = ";".join(map(_doc_cell, flat))
        else:
            cell = _doc_cell(value)
        rows.append((name, csv_quoted(cell)))
    return rows


def csv_quoted(text: str) -> str:
    """One CSV field, quoted where csv.writer's minimal quoting would quote it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def report_columns(coordinates: list, rep: ReportColumns) -> list:
    """A report's columns in ``REPORT_HEADER`` order: the coordinates, ``rep``'s floats, then its byte-table cells."""
    return [
        *coordinates, rep.h_p, rep.div_f, rep.phi_rate, rep.identity_gap,
        _VERDICT_CELLS.take(rep.verdict_power), _VERDICT_CELLS.take(rep.verdict_divergence),
        _BOOL_CELLS.take(rep.agree.view(np.int8)),
    ]


def report_json(name: str, tol: float, coordinates: list, rep: ReportColumns) -> Iterator:
    """The pieces of the report on system ``name`` at ``tol``, as ``json.dumps(doc, indent=2)`` writes it.

    The columns are formatted before the call returns (see ``_render``). The
    float columns are finite: ``report_many`` rejects a non-finite one.
    """
    disagreements = len(rep.agree) - int(np.count_nonzero(rep.agree))
    head = _REPORT_HEAD % (json.dumps(name), json.dumps(tol))
    tail = _REPORT_TAIL % (len(rep.agree), disagreements)
    # every point ends in ",\n"; the last one ends the list instead
    columns = report_columns(coordinates, rep)
    return _render(head.encode(), _REPORT_POINT_BYTES, columns, tail.encode(), fold_negative_zero=False, trim=2)
