"""Every entry of ``tools/mutants.py`` still names text that occurs once in its file.

The tool refuses a stale entry before it runs anything; this catches one in
the ordinary suite, without running a mutant, so an edit that moves or
rewrites a mutated line must update the table with it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_every_mutant_matches_its_file_once():
    assert mutants.stale(ROOT) == []
    labels = [label for label, *_ in mutants.MUTANTS]
    assert len(labels) == len(set(labels))
    assert all(old != new for _, _, old, new in mutants.MUTANTS)


def test_the_sweep_multiplies_each_tolerance_by_ten_and_a_tenth():
    # tolerances.py holds 9 float constants; a constant added or removed there changes this count on purpose
    entries = mutants.sweep(ROOT)
    assert len(entries) == 18
    assert mutants.stale(ROOT, entries) == []
    assert len({label for label, *_ in entries}) == 18
    assert ("fd_step_x0.1", "src/aodecomp/tolerances.py", "FD_STEP = 1e-6", "FD_STEP = 1e-6 * 0.1") in entries


def test_a_stale_entry_is_named(tmp_path):
    (tmp_path / "module.py").write_text("x = 1\nx = 1\n")
    entries = [("twice", "module.py", "x = 1", "x = 2"), ("missing", "gone.py", "y", "z"), ("once", "module.py", "x = 1\nx", "x")]
    assert mutants.stale(tmp_path, entries) == [
        "twice: module.py holds its old text 2 times, not once: 'x = 1'",
        "missing: gone.py holds its old text 0 times, not once: 'y'",
    ]
