"""Run alternating parent/change pairs of the benchmark and write BENCH_<n>.json.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent <rev> --change <rev> --out BENCH_<n>.json \\
        --workload grid_sweep --workload trajectory --seeds 901-910 \\
        [--trace-seed 951] [--what TEXT] [--claim TEXT]

Each commit is exported with ``git archive`` into its own directory, and every
run is ``python3 bench/run.py --workload W --seed S --seconds N --trace T``
from that export, with N the ``run_seconds`` of ``BENCHMARK.json``, so both
sides run the same benchmark code for the same time on the committed files
alone. For each workload and seed one pair runs, parent and change back to
back, and the side that runs first alternates from pair to pair.
``--trace-seed`` adds one traced pair per workload for the per-layer
metrics; the summary counts untraced runs only.

The output keeps ``BENCH_7.json``'s layout: ``summary`` gives, per workload
and end-to-end metric of ``BENCHMARK.json``, each side's q1, median, q3 and
runs, the median change, the pairs the change wins and the parent's
interquartile range, also as a ratio of the parent's median; ``peak_rss_mb_modes`` splits each side's peak RSS where
sorted runs jump by more than ``RSS_MODE_GAP_MB``; ``run_order`` lists the
sides in the order they ran, and ``runs`` holds every run's full record, one
line each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# peak RSS runs in two modes about 4 MB apart (glibc's dynamic mmap threshold),
# with sorted runs at most about 1 MB apart within a mode
RSS_MODE_GAP_MB = 1.5


def _seeds(text: str) -> list[int]:
    """``901-910``: the seeds 901 to 910. A range that holds no seed, such as ``910-901``, is an argparse error."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} holds no seed; give the lower seed first")
    return seeds


def _export(rev: str, directory: Path) -> str:
    """Unpack the committed tree of ``rev`` into ``directory``; return its short hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    directory.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    return commit


def _run(directory: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run from an export; its full record."""
    argv = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    subprocess.run(argv, cwd=directory, check=True, stdout=subprocess.DEVNULL)
    path = directory / ".bench_build" / "bench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3, "runs": values}


def _modes(values: list[float]) -> list[dict]:
    """Runs split where the sorted values jump by more than RSS_MODE_GAP_MB."""
    groups: list[list[float]] = []
    for value in sorted(values):
        if groups and value - groups[-1][-1] <= RSS_MODE_GAP_MB:
            groups[-1].append(value)
        else:
            groups.append([value])
    return [{"runs": len(group), "median": statistics.median(group)} for group in groups]


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per-metric comparison of (parent record, change record) pairs of one workload."""
    out: dict = {"pairs": len(pairs)}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["end_to_end"][name]["value"] for p, _ in pairs]
        change = [c["end_to_end"][name]["value"] for _, c in pairs]
        p, c = _quartiles(parent), _quartiles(change)
        wins = sum((b > a) if higher else (b < a) for a, b in zip(parent, change))
        out[name] = {
            "better": metric["better"],
            "parent": p,
            "change": c,
            "median_change_vs_parent": c["median"] / p["median"] - 1.0,
            "change_wins": f"{wins} of {len(pairs)}",
            "parent_iqr": p["q3"] - p["q1"],
            # on the median's base, so it reads against median_change_vs_parent
            "parent_iqr_ratio": (p["q3"] - p["q1"]) / p["median"],
        }
    rss = [[record["end_to_end"]["peak_rss_mb"]["value"] for record in pair] for pair in pairs]
    out["peak_rss_mb_modes"] = {
        side: _modes([values[i] for values in rss]) for i, side in enumerate(("parent", "change"))
    }
    out["output_sha256_equal_every_seed"] = all(p["output_sha256"] == c["output_sha256"] for p, c in pairs)
    out["failed"] = {
        side: sum(pair[i]["failed"] for pair in pairs) for i, side in enumerate(("parent", "change"))
    }
    return out


def write(path: Path, doc: dict, runs: list[dict]) -> None:
    """``doc`` indented by one space, then ``runs``, one compact line per run."""
    head = json.dumps(doc, indent=1)
    lines = ",\n".join("   " + json.dumps(run, separators=(",", ":")) for run in runs)
    path.write_text(head[:-2] + ',\n "runs": [\n' + lines + "\n ]\n}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--change", default="HEAD", help="change commit (default HEAD)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds, help="one pair per seed, e.g. 901-910")
    parser.add_argument("--trace-seed", type=int, default=None, help="one traced pair per workload at this seed")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    parser.add_argument("--what", default="", help="what the change does")
    parser.add_argument("--claim", default="", help="the claim the runs test")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        exports = {side: Path(scratch) / side for side in ("parent", "change")}
        commits = {side: _export(getattr(args, side), exports[side]) for side in exports}
        schedule = [(w, seed, 0) for w in args.workload for seed in args.seeds]
        if args.trace_seed is not None:
            schedule += [(w, args.trace_seed, 1) for w in args.workload]
        runs, order = [], []
        pairs: dict[str, list[tuple[dict, dict]]] = {w: [] for w in args.workload}
        for i, (workload, seed, trace) in enumerate(schedule):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            records = {}
            for side in sides:
                print(f"{side} {commits[side]} {workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
                records[side] = _run(exports[side], workload, seed, seconds, trace)
                runs.append({"side": side, "workload": workload, "seed": seed, "trace": trace, "record": records[side]})
                order.append(side)
            if not trace:
                pairs[workload].append((records["parent"], records["change"]))
    doc = {
        "what": args.what,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "command": "python3 bench/run.py --workload <workload> --seed <seed> --seconds "
        f"{seconds:g} --trace <0|1>",
        "protocol": "alternating parent/change pairs, the first side alternating from pair to pair; "
        "each side runs from a git archive export of its commit (tools/bench_pairs.py)",
        "claim": args.claim,
        "summary": {w: summarize(p, benchmark["end_to_end"]) for w, p in pairs.items()},
        "run_order": order,
    }
    write(args.out, doc, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
