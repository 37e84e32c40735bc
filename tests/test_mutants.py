"""Every entry of ``tools/mutants.py`` still names text that occurs once in its file.

The tool refuses a stale entry before it runs anything; this catches one in
the ordinary suite, without running a mutant, so an edit that moves or
rewrites a mutated line must update the table with it. The generated
entries' counts are pinned, so an edit that adds or removes a tolerance or a
comparison updates them on purpose.
"""

from __future__ import annotations

import ast
import importlib.util
from collections import Counter
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
    entries = mutants.tolerance_entries(ROOT)
    assert len(entries) == 18
    assert mutants.stale(ROOT, entries) == []
    assert len({label for label, *_ in entries}) == 18
    assert ("fd_step_x0.1", "src/aodecomp/tolerances.py", "FD_STEP = 1e-6", "FD_STEP = 1e-6 * 0.1") in entries


def test_the_sweep_swaps_and_flips_each_ordering_comparison():
    # src/aodecomp/ holds 57 ordering comparisons; one added or removed changes these counts on purpose
    entries = mutants.comparison_entries(ROOT)
    per_module = {"cli": 10, "core": 6, "dissipation": 5, "dynamics": 10, "field": 2, "floatfmt": 11, "linear": 10,
                  "render": 2, "tolerances": 1}
    assert Counter(file for _, file, *_ in entries) == {f"src/aodecomp/{m}.py": 2 * n for m, n in per_module.items()}
    assert len(entries) == 114
    assert mutants.stale(ROOT, entries) == []
    assert mutants.sweep(ROOT) == mutants.tolerance_entries(ROOT) + entries
    labels = [label for label, *_ in mutants.MUTANTS + mutants.sweep(ROOT)]
    assert len(labels) == len(set(labels))
    for _, file, old, new in entries:  # each mutated file still parses
        ast.parse((ROOT / file).read_text(encoding="utf-8").replace(old, new))
    old = "abs(disc) <= SPECTRUM_TOL * m * m"
    assert ("linear_classify_spectrum_1_strict", "src/aodecomp/linear.py", old, old.replace("<=", "<")) in entries
    assert ("linear_classify_spectrum_1_flipped", "src/aodecomp/linear.py", old, old.replace("<=", ">=")) in entries


def test_a_comparison_is_widened_a_line_at_a_time_until_it_occurs_once(tmp_path):
    package = tmp_path / "src" / "aodecomp"
    package.mkdir(parents=True)
    # ast counts columns in UTF-8 bytes, so the "é" before the last comparison moves it by one character
    source = "def f(x):\n    if x < 1:\n        return x < 1\n    return 'é' and x >= 2\n"
    (package / "m.py").write_text(source, encoding="utf-8")
    assert mutants.comparison_entries(tmp_path) == [
        ("m_f_1_inclusive", "src/aodecomp/m.py", "    if x < 1:", "    if x <= 1:"),
        ("m_f_1_flipped", "src/aodecomp/m.py", "    if x < 1:", "    if x > 1:"),
        ("m_f_2_inclusive", "src/aodecomp/m.py", "        return x < 1", "        return x <= 1"),
        ("m_f_2_flipped", "src/aodecomp/m.py", "        return x < 1", "        return x > 1"),
        ("m_f_3_strict", "src/aodecomp/m.py", "x >= 2", "x > 2"),
        ("m_f_3_flipped", "src/aodecomp/m.py", "x >= 2", "x <= 2"),
    ]


def test_a_stale_entry_is_named(tmp_path):
    (tmp_path / "module.py").write_text("x = 1\nx = 1\n")
    entries = [("twice", "module.py", "x = 1", "x = 2"), ("missing", "gone.py", "y", "z"), ("once", "module.py", "x = 1\nx", "x")]
    assert mutants.stale(tmp_path, entries) == [
        "twice: module.py holds its old text 2 times, not once: 'x = 1'",
        "missing: gone.py holds its old text 0 times, not once: 'y'",
    ]
