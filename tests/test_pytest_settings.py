"""The repository's pytest settings let a failing hypothesis property show its example.

``filterwarnings`` turns every warning into an error. Hypothesis's report of
a failing property touches the deprecated ``mypy_extensions.TypedDict``, and
as an error that warning ended the run in an INTERNALERROR with no
falsifying example. This runs pytest, with the settings of ``pyproject.toml``,
on one property that fails.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_every_integer_is_negative(n):
    assert n < 0
"""


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    test_file = tmp_path / "test_property.py"
    test_file.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file),
        ],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert proc.returncode == 1  # one test failed, and pytest itself did not
