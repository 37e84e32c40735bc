"""The benchmark's per-layer tracer still patches names the program has.

``bench/tracer.py`` wraps module attributes of aodecomp by name, so a change
that renames or deletes one of them breaks the traced benchmark; this test
catches that in the ordinary suite. It runs one ``simulate --polar``, one
``report`` and one pointwise ``decompose`` through the patched ``cli.main``,
checks that each document went through the patched writers, that the
patched ``Point2.__post_init__`` counted constructions, and that every
patched attribute is restored afterwards.
"""

from __future__ import annotations

import gc
import importlib.util
from pathlib import Path

from aodecomp import cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_a_run_and_restores_every_attribute(capsys):
    tracer = _load_tracer().Tracer()
    callbacks = list(gc.callbacks)
    with tracer.installed():
        patched = list(tracer._patched)
        assert cli.main(["simulate", "--system", "hopf_limit_cycle", "--x0", "0.5,0", "--t-end", "0.01", "--polar"]) == 0
        assert cli.main(["report", "--system", "hopf_limit_cycle", "--at", "0.5,0", "--format", "csv"]) == 0
        assert cli.main(["decompose", "--system", "hopf_limit_cycle", "--at", "0.5,0"]) == 0
        snapshot = tracer.snapshot()
    capsys.readouterr()
    assert patched
    assert snapshot["spans"]["cli.main"][0] == 3
    # every CSV goes through cli._emit_csv and a small JSON document through
    # cli._emit_json and cli._write_output, the names the tracer times
    assert snapshot["spans"]["cli.emit_csv"][0] == 2
    assert snapshot["spans"]["cli.emit_json"][0] == 1
    assert snapshot["spans"]["cli.write"][0] == 1
    # the tracer counts Point2 constructions by patching Point2.__post_init__ on the class,
    # so a record that bound __post_init__ when it was made would read 0 here
    assert snapshot["counts"]["core.point2_constructed"] > 0
    assert snapshot["spans"]["dynamics.integrate"][0] == 1
    assert all(getattr(obj, name) is original for obj, name, original in patched)
    assert gc.callbacks == callbacks
