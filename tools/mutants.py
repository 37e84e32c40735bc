"""Apply each mutation of a fixed table to a copy of the tree, run tier-1 on it, and say whether a test caught it.

Usage, from the repository root:

    python3 tools/mutants.py [LABEL ...] [--sweep] [--tests PATH ...]

Each entry of ``MUTANTS`` is (label, file, old text, new text): a small
change to the program that a sound suite must notice. Before anything runs,
every selected entry's old text must occur exactly once in its file, so an
entry made stale by an edit fails loudly instead of testing nothing. Then,
one entry at a time, the working tree (without ``.git``, caches and
``BENCH_*.json``) is copied into a temporary directory, the old text is
replaced by the new one there, and tier-1 runs in the copy with ``-x``:
``PYTHONPATH=src python -m pytest -q -x`` on the suite, or on ``--tests``
alone. ``tests/test_mutants.py`` is left out of that run: it checks the
table against the tree, so it fails on every mutated copy. Each entry gets one line: caught or survived, the first test that
failed, and the seconds the run took. The exit status is 0 when every
mutation was caught, 1 when one survived or its run could not complete, and
2 when an entry is stale. The standard library is all it needs.

``--sweep`` runs generated entries in place of the table (``sweep``), found
with ``ast``: each float constant of ``tolerances.py`` times 10 and times 0.1,
and each ordering comparison (``<``, ``<=``, ``>``, ``>=``) in ``src/aodecomp/``
with its inclusive and strict forms swapped and with its direction flipped.
A comparison's entry is labelled by module, enclosing function, the
comparison's place in that function and the edit, as in
``linear_classify_spectrum_1_strict``; its old text is the comparison,
widened a line at a time until it occurs once. Labels name entries of the
table and of the sweep alike. The sweep's survivors and their dispositions
are in CHANGES.md.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (label, file, old text, new text)
MUTANTS = [
    # a power verdict ten times too forgiving, which only the exact verdicts see
    ("power_verdict_loose", "src/aodecomp/dissipation.py", "np.abs(h_p) <= tol", "np.abs(h_p) <= 10 * tol"),
    # value errors in the friction power, the linear divergence, the stepper and the overflow rescale
    (
        "friction_power_sign", "src/aodecomp/dissipation.py",
        "s.a11 * f1 * f1 + (s.a12 + s.a21) * f1 * f2", "s.a11 * f1 * f1 - (s.a12 + s.a21) * f1 * f2",
    ),
    (
        "linear_trace_sign", "src/aodecomp/core.py",
        "divergence_fn=lambda _x1, _x2: trace)", "divergence_fn=lambda _x1, _x2: -trace)",
    ),
    (
        "rk4_weight", "src/aodecomp/dynamics.py",
        "a = a + dt * (k1a + 2.0 * (k2a + k3a) + k4a) / 6.0", "a = a + dt * (k1a + 2.0 * (k2a + k3a) + 2.0 * k4a) / 6.0",
    ),
    (
        "overflow_rescale_inverted", "src/aodecomp/field.py",
        "s = friction_at(*frame) * (g_max / f_max)", "s = friction_at(*frame) * (f_max / g_max)",
    ),
    # what time reversal alone caught when it was added
    ("sym_split_off_diagonal", "src/aodecomp/core.py", "off = 0.5 * (m.a12 + m.a21)", "off = m.a12"),
    (
        "equilibrium_on_sum", "src/aodecomp/field.py",
        "np.hypot(f1, f2) <= EQUILIBRIUM_TOL", "abs(f1 + f2) <= EQUILIBRIUM_TOL",
    ),
    ("div_verdict_signed", "src/aodecomp/dissipation.py", "np.where(np.abs(div) <= tol, 0,", "np.where(div <= tol, 0,"),
    # the absolute floors the trace, singular, PSD and gyration tests once had; on the power-of-two unit copies
    # those tests are made on, a floor loosens each bound by a factor of 1.5 to 9
    (
        "trace_tol_floor", "src/aodecomp/linear.py",
        "trace_tol = TRACE_ZERO_TOL * u.max_abs()", "trace_tol = TRACE_ZERO_TOL * (1.0 + u.max_abs())",
    ),
    (
        "det_tol_floor", "src/aodecomp/core.py",
        "SINGULAR_DET_TOL * scale * scale", "SINGULAR_DET_TOL * (1.0 + scale * scale)",
    ),
    (
        "psd_slack_floor", "src/aodecomp/core.py",
        "det >= -PSD_SLACK * scale * scale", "det >= -PSD_SLACK * (1.0 + scale * scale)",
    ),
    (
        "friction_psd_floor", "src/aodecomp/dissipation.py",
        "scale = max(abs(a11), abs(a12), abs(a21), abs(a22))",
        "scale = 1.0 + max(abs(a11), abs(a12), abs(a21), abs(a22))",
    ),
    (
        "q_residual_floor", "src/aodecomp/linear.py",
        "u.max_abs() * (abs(qu) + dm.max_abs())", "u.max_abs() * (1.0 + abs(qu) + dm.max_abs())",
    ),
    # no unit copy: every product of entries beyond about 1e+-154 leaves the normal floats again
    ("unit_copy_skipped", "src/aodecomp/core.py", "e = math.frexp(max(map(abs, values)))[1]", "e = 0"),
    # a stage beside an fn it was not compiled from: the stepper would inline one field and evaluate another
    (
        "stage_pairing_unchecked", "src/aodecomp/core.py",
        'if self.stage is not None and getattr(self.fn, "stage", None) != self.stage:', "if False:",
    ),
    # a refused value past float64 printed as inf, not spelled out as m * 2**e
    (
        "refusal_overflow_prints_inf", "src/aodecomp/core.py",
        "return repr(back) if math.ldexp(back, -e) == x",
        "return repr(back) if math.isinf(back) or math.ldexp(back, -e) == x",
    ),
    # finite differences on arrays only, 1e-12 off: the batch must match the point loop bit for bit
    (
        "batch_central_divergence_scaled", "src/aodecomp/core.py",
        "d1 = (f(x1 + h1, x2)[0] - f(x1 - h1, x2)[0]) / (2.0 * h1)",
        "d1 = (f(x1 + h1, x2)[0] - f(x1 - h1, x2)[0]) / (2.0 * h1) * (1.0 + 1e-12 * isinstance(x1, np.ndarray))",
    ),
]

# tier-1 takes under a minute; a run this long is hung
TIMEOUT_S = 900
_NOT_COPIED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_build", ".benchmarks", "*.egg-info", "BENCH_*.json"
)


# each ordering comparison's token, and the edits made to it: (label suffix, new token)
_TOKENS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
_EDITS = {
    ast.Lt: (("inclusive", "<="), ("flipped", ">")),
    ast.LtE: (("strict", "<"), ("flipped", ">=")),
    ast.Gt: (("inclusive", ">="), ("flipped", "<")),
    ast.GtE: (("strict", ">"), ("flipped", "<=")),
}


def sweep(root: Path = ROOT) -> list[tuple[str, str, str, str]]:
    """The generated entries: ``tolerance_entries`` and then ``comparison_entries``."""
    return tolerance_entries(root) + comparison_entries(root)


def tolerance_entries(root: Path = ROOT) -> list[tuple[str, str, str, str]]:
    """Entries of ``MUTANTS``' form that multiply each float constant of ``tolerances.py`` by 10 and by 0.1."""
    file = "src/aodecomp/tolerances.py"
    source = (root / file).read_text(encoding="utf-8")
    entries = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) and type(node.value.value) is float:
            old = ast.get_source_segment(source, node)
            entries += [(f"{node.targets[0].id.lower()}_x{k}", file, old, f"{old} * {k}") for k in ("10", "0.1")]
    return entries


def comparison_entries(root: Path = ROOT) -> list[tuple[str, str, str, str]]:
    """Two entries for each ordering comparison in ``src/aodecomp/``: inclusive and strict swapped, and flipped."""
    entries = []
    for path in sorted((root / "src" / "aodecomp").glob("*.py")):
        file = path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines(keepends=True)
        starts = [0]
        for line in lines:
            starts.append(starts[-1] + len(line))

        def offset(node: ast.AST, end: bool = False) -> int:
            """The index in ``source`` of where ``node`` starts or ends; ast counts columns in UTF-8 bytes."""
            row, col = (node.end_lineno, node.end_col_offset) if end else (node.lineno, node.col_offset)
            return starts[row - 1] + len(lines[row - 1].encode("utf-8")[:col].decode("utf-8"))

        sites = []
        for scope, node in _compares(ast.parse(source)):
            for op, left, right in zip(node.ops, [node.left, *node.comparators], node.comparators):
                if type(op) in _TOKENS:
                    gap = offset(left, end=True)
                    at = gap + source[gap:offset(right)].index(_TOKENS[type(op)])
                    sites.append((at, scope, type(op), offset(left), offset(right, end=True)))
        ordinals = dict.fromkeys((scope for _, scope, *_ in sites), 0)
        for at, scope, op, start, end in sorted(sites):
            ordinals[scope] += 1
            start, end = _once(source, start, end)
            old = source[start:end]
            for suffix, token in _EDITS[op]:
                new = old[:at - start] + token + old[at - start + len(_TOKENS[op]):]
                entries.append((f"{path.stem}_{scope.strip('_')}_{ordinals[scope]}_{suffix}", file, old, new))
    return entries


def _compares(node: ast.AST, scope: str = "module"):
    """(name of the innermost enclosing function, or "module", comparison) for each comparison under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        if isinstance(child, ast.Compare):
            yield inner, child
        yield from _compares(child, inner)


def _once(source: str, start: int, end: int) -> tuple[int, int]:
    """``start, end`` widened to whole lines, then a line up and down at a time, until its text occurs once."""
    while source.count(source[start:end]) != 1:
        up, down = source.rfind("\n", 0, start) + 1, source.find("\n", end)
        if (up, down) == (start, end):  # whole lines already
            up, down = source.rfind("\n", 0, max(start - 1, 0)) + 1, source.find("\n", end + 1)
        start, end = up, len(source) if down < 0 else down
    return start, end


def stale(root: Path, mutants=MUTANTS) -> list[str]:
    """One line for each entry whose old text does not occur exactly once in its file under ``root``."""
    problems = []
    for label, file, old, _ in mutants:
        path = root / file
        count = path.read_text(encoding="utf-8").count(old) if path.is_file() else 0
        if count != 1:
            problems.append(f"{label}: {file} holds its old text {count} times, not once: {old!r}")
    return problems


def run(label: str, file: str, old: str, new: str, tests: list[str]) -> tuple[str, str, float]:
    """(outcome, first failing test, seconds) of tier-1 on a copy of the tree with ``old`` replaced by ``new``."""
    with tempfile.TemporaryDirectory(prefix=f"mutant_{label}_") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=_NOT_COPIED)
        path = tree / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        command = [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            "--ignore=tests/test_mutants.py",
        ]
        start = time.perf_counter()
        try:
            proc = subprocess.run(command + tests, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:  # a mutant can make a loop run forever
            return f"error (over {TIMEOUT_S} s)", "", time.perf_counter() - start
        seconds = time.perf_counter() - start
    # "FAILED <node id> - <message>", where a parametrized node id may hold spaces
    failed = next(
        (
            line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))
        ),
        "",
    )
    # pytest exits 0 when every test passed and 1 when a test failed; anything else is not a verdict
    outcome = {0: "survived", 1: "caught"}.get(proc.returncode, f"error (pytest exit {proc.returncode})")
    return outcome, failed, seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "labels", nargs="*",
        help="entries of the table or the sweep to run (default: the table, or the sweep with --sweep)",
    )
    parser.add_argument("--sweep", action="store_true", help="run the generated entries, not the table")
    parser.add_argument("--tests", nargs="+", default=[], help="test files to run in place of the whole suite")
    args = parser.parse_args(argv)
    generated = sweep()
    known = {entry[0] for entry in MUTANTS + generated}
    unknown = sorted(set(args.labels) - known)
    if unknown:
        parser.error(f"no mutant named {', '.join(unknown)}; known: {', '.join(sorted(known))}")
    if args.labels:
        selected = [entry for entry in MUTANTS + generated if entry[0] in args.labels]
    else:
        selected = generated if args.sweep else MUTANTS
    problems = stale(ROOT, selected)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    survived = 0
    for label, file, old, new in selected:
        outcome, failed, seconds = run(label, file, old, new, args.tests)
        survived += outcome != "caught"
        print(f"{label:34} {outcome:9} {seconds:6.1f} s  {failed or '-'}", flush=True)
    print(f"{len(selected) - survived} of {len(selected)} caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
