"""Golden CLI corpus: every recorded argv must reproduce its stdout bytes exactly.

The manifest is written by ``tests/golden/regenerate.py``; see its docstring.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden")
sys.path.insert(0, str(GOLDEN))

from regenerate import MANIFEST, corpus, run  # noqa: E402

ENTRIES = json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_golden_output(entry, monkeypatch):
    monkeypatch.delenv("AODECOMP_TOL", raising=False)
    code, out, err = run(entry["argv"])
    assert code == entry["exit"]
    assert hashlib.sha256(out).hexdigest() == entry["sha256"]
    assert err.startswith("aodecomp:") == entry["stderr_aodecomp"]
    if not entry["stderr_aodecomp"]:
        assert err == ""


def test_corpus_covers_every_subcommand_and_system():
    from aodecomp import list_systems

    commands = {e["argv"][0] for e in ENTRIES}
    assert commands == {"catalog", "decompose", "grid", "report", "simulate"}
    for system in list_systems():
        for command in ("grid", "report", "simulate"):
            assert any(e["argv"][0] == command and system in e["argv"] for e in ENTRIES)


def test_manifest_matches_the_generator():
    assert [e["argv"] for e in ENTRIES] == corpus()


DECOMPOSE_CSV = [
    e["argv"] for e in ENTRIES
    if e["argv"][0] == "decompose" and e["argv"][-2:] == ["--format", "csv"] and e["exit"] == 0
]


@pytest.mark.parametrize("argv", DECOMPOSE_CSV, ids=" ".join)
def test_decompose_csv_parses_into_key_value_rows(argv, monkeypatch):
    monkeypatch.delenv("AODECOMP_TOL", raising=False)
    _, out, _ = run(argv)
    rows = list(csv.reader(io.StringIO(out.decode("utf-8"))))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
