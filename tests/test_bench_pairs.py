"""``tools/bench_pairs.py`` parses its seed ranges before it exports or runs anything."""

from __future__ import annotations

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_seeds_reads_a_range_and_a_single_seed():
    assert bench_pairs._seeds("901-910") == list(range(901, 911))
    assert bench_pairs._seeds("905") == [905]


def test_a_reversed_seed_range_is_refused_before_any_export(monkeypatch, capsys, tmp_path):
    with pytest.raises(argparse.ArgumentTypeError, match="'910-901' holds no seed"):
        bench_pairs._seeds("910-901")

    def export(rev, directory):
        raise AssertionError("exported before the seeds were checked")

    monkeypatch.setattr(bench_pairs, "_export", export)
    argv = ["--parent", "HEAD", "--workload", "grid_sweep", "--seeds", "910-901", "--out", str(tmp_path / "b.json")]
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(argv)
    assert info.value.code == 2
    assert "argument --seeds: '910-901' holds no seed" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()
