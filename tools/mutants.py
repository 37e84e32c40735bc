"""Apply each mutation of a fixed table to a copy of the tree, run tier-1 on it, and say whether a test caught it.

Usage, from the repository root:

    python3 tools/mutants.py [LABEL ...] [--tests PATH ...]

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
"""

from __future__ import annotations

import argparse
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
    # zero verdicts and the singular split are inclusive at their tolerance
    ("div_verdict_strict", "src/aodecomp/dissipation.py", "np.abs(div) <= tol", "np.abs(div) < tol"),
    ("power_verdict_strict", "src/aodecomp/dissipation.py", "np.abs(h_p) <= tol", "np.abs(h_p) < tol"),
    (
        "singular_split_strict", "src/aodecomp/field.py",
        "norm2 <= SINGULAR_SPLIT_TOL", "norm2 < SINGULAR_SPLIT_TOL",
    ),
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
    # the absolute floor the linear construction's trace test had, which reads a small A's trace as zero
    (
        "trace_tol_floor", "src/aodecomp/linear.py",
        "trace_tol = TRACE_ZERO_TOL * a.max_abs()", "trace_tol = TRACE_ZERO_TOL * (1.0 + a.max_abs())",
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
    failed = next(
        (line.split(" ", 2)[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))), ""
    )
    # pytest exits 0 when every test passed and 1 when a test failed; anything else is not a verdict
    outcome = {0: "survived", 1: "caught"}.get(proc.returncode, f"error (pytest exit {proc.returncode})")
    return outcome, failed, seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("labels", nargs="*", help="the entries to run (default: every entry)")
    parser.add_argument("--tests", nargs="+", default=[], help="test files to run in place of the whole suite")
    args = parser.parse_args(argv)
    known = {entry[0] for entry in MUTANTS}
    unknown = sorted(set(args.labels) - known)
    if unknown:
        parser.error(f"no mutant named {', '.join(unknown)}; known: {', '.join(sorted(known))}")
    selected = [entry for entry in MUTANTS if not args.labels or entry[0] in args.labels]
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
