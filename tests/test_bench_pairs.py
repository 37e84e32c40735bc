"""``tools/bench_pairs.py`` parses its seed ranges before it exports or runs anything, and summarizes pairs."""

from __future__ import annotations

import argparse
import importlib.util
import platform
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


def _record(points_per_s: float, peak_rss_mb: float) -> dict:
    metrics = {"points_per_s": points_per_s, "peak_rss_mb": peak_rss_mb}
    return {"end_to_end": {name: {"value": value} for name, value in metrics.items()}, "output_sha256": "a", "failed": 0}


def test_summary_gives_the_parent_iqr_on_the_median_base():
    metrics = [{"name": "points_per_s", "better": "higher"}, {"name": "peak_rss_mb", "better": "lower"}]
    pairs = [(_record(100.0, 50.0), _record(110.0, 47.0)), (_record(200.0, 46.0), _record(190.0, 47.0))]
    summary = bench_pairs.summarize(pairs, metrics)
    speed = summary["points_per_s"]
    # two runs: the inclusive quartiles are 125 and 175 around the median 150
    assert (speed["parent"]["q1"], speed["parent"]["median"], speed["parent"]["q3"]) == (125.0, 150.0, 175.0)
    assert speed["parent_iqr"] == 50.0
    assert speed["parent_iqr_ratio"] == pytest.approx(1 / 3)
    assert speed["median_change_vs_parent"] == 0.0
    assert speed["change_wins"] == "1 of 2"
    rss = summary["peak_rss_mb"]
    assert rss["parent_iqr_ratio"] == pytest.approx(2.0 / 48.0)
    assert rss["change_wins"] == "1 of 2"
    assert summary["output_sha256_equal_every_seed"]


@pytest.mark.parametrize(
    "environ, no_bytecode",
    [({}, False), ({"PYTHONDONTWRITEBYTECODE": ""}, False), ({"PYTHONDONTWRITEBYTECODE": "1"}, True)],
)
def test_environment_names_the_python_and_whether_bytecode_writing_is_off(environ, no_bytecode):
    # Python reads an empty PYTHONDONTWRITEBYTECODE as unset
    expected = {"python": platform.python_version(), "PYTHONDONTWRITEBYTECODE": no_bytecode}
    assert bench_pairs.environment(environ) == expected
