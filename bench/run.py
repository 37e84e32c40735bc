"""aodecomp benchmark: one seeded CLI workload, timed end to end or traced by layer.

    python3 bench/run.py --workload grid_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/``; nothing
is installed. Each run

1. times ``setup_s``: fresh interpreters until ``aodecomp.cli`` is imported
   and the catalog is built (median of several), or with ``--trace 1`` the
   numpy and aodecomp import times from ``-X importtime``;
2. starts ``worker.py`` in its own interpreter, which sends the workload's
   seeded requests through ``aodecomp.cli.main`` with one client in a closed
   loop for ``--seconds`` seconds (at least MIN_PASSES passes over the list);
   with ``--trace 1`` every other pass runs with the layer tracer of
   ``tracer.py`` installed;
3. checks every output against the numpy oracles of ``oracle.py`` and checks
   that every pass wrote the same bytes;
4. prints the metrics by name with their units, writes the full record to
   ``.bench_build/bench/results/`` and prints, as its last line, one JSON
   object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
   the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
   ``--trace 1``.

Every time is scaled to a fixed host speed: a reference task of
``reference.py`` is timed next to the work (between requests, around each
interpreter start) and a time t becomes ``t * nominal / reference time``.
The shared host this was built on runs one vCPU up to 2x slower for seconds
to minutes at a time; scaling removes most of that, and a change in the
program still moves the scaled time in full. Raw times are kept in the record. Timings
are medians over passes. BLAS and OpenMP threads are pinned to 1, and the
benchmark and its child interpreters share one CPU, so a reference time
and the work it scales run on the same core.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
NPROC = len(os.sched_getaffinity(0))
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"

MIN_PASSES = 4
TRACE_MIN_PASSES = 2
SETUP_SAMPLES = 15
IMPORT_SAMPLES = 5
WORKER_TIMEOUT_S = 150
# Candidate tail percentiles, highest first; the reported one is the highest
# that leaves at least ten requests beyond it in MIN_PASSES passes, so it
# depends on the request list only, never on how many passes a host managed.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

SETUP_CODE = (
    "import time, aodecomp.cli as c; c.catalog.list_systems(); "
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("points_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# metric name -> (unit, span name, field of [calls, total_ns, self_ns])
_SPAN_METRICS = {
    "cli.parse_ms": ("ms", "cli.parse", 1),
    "cli.emit_csv_self_ms": ("ms", "cli.emit_csv", 2),
    "cli.emit_json_self_ms": ("ms", "cli.emit_json", 2),
    "cli.write_ms": ("ms", "cli.write", 1),
    "cli.main_self_ms": ("ms", "cli.main", 2),
    "dissipation.report_calls": ("count", "dissipation.report", 0),
    "dissipation.report_self_ms": ("ms", "dissipation.report", 2),
    "dissipation.phi_rate_self_ms": ("ms", "dissipation.phi_rate", 2),
    "dissipation.divergence_self_ms": ("ms", "dissipation.divergence", 2),
    "field.point_decomposition_calls": ("count", "field.point_decomposition", 0),
    "field.point_decomposition_self_ms": ("ms", "field.point_decomposition", 2),
    "dynamics.integrate_self_ms": ("ms", "dynamics.integrate", 2),
    "dynamics.integrate_polar_self_ms": ("ms", "dynamics.integrate_polar", 2),
    "linear.solve_gyration_self_ms": ("ms", "linear.solve_gyration", 2),
    "linear.assemble_decomposition_self_ms": ("ms", "linear.assemble_decomposition", 2),
}
_COUNT_METRICS = {
    "cli.emit_csv_cells": "count",
    "cli.emit_json_bytes": "bytes",
    "cli.write_bytes": "bytes",
    "dynamics.integrate_steps": "count",
    "core.point2_constructed": "count",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("AODECOMP_TOL", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1]} did not finish within {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def _between_probes(step, directory: Path):
    """Runs ``step()`` between two probes of the request task; returns its result and the raw-to-scaled factor.

    Interpreter start-up is scaled by the request task in every workload, so
    ``setup_s`` means the same in all of them.
    """
    before = reference.probe_ns("request", str(directory))
    result = step()
    return result, reference.factor("request", before, reference.probe_ns("request", str(directory)))


def _setup_seconds(env: dict, directory: Path) -> tuple[float, float]:
    """Raw and scaled seconds from a fresh interpreter to an imported cli with its catalog."""
    def start_once() -> float:
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = _run([sys.executable, "-c", SETUP_CODE], env, 60)
        return (int(proc.stdout.strip()) - start) / 1e9

    raw, factor = _between_probes(start_once, directory)
    return raw, raw * factor


def _import_ms(env: dict, directory: Path) -> tuple[float, float]:
    """numpy's cumulative import time, and aodecomp's (package plus cli) without numpy, scaled."""
    proc, factor = _between_probes(
        lambda: _run([sys.executable, "-X", "importtime", "-c", "import aodecomp.cli"], env, 60), directory
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]))
    numpy_us = cumulative["numpy"]
    aodecomp_us = cumulative["aodecomp"] + cumulative["aodecomp.cli"] - numpy_us
    return numpy_us / 1000 * factor, aodecomp_us / 1000 * factor


def _scaled_latency_ns(one_pass: dict, kind: str) -> list[float]:
    """Each request's time scaled by the mean of the reference times around it."""
    probes = one_pass["probes"]
    scaled, k = [], 0
    for i, ns in enumerate(one_pass["latency_ns"]):
        while probes[k + 1][0] <= i:
            k += 1
        scaled.append(ns * reference.factor(kind, probes[k][1], probes[k + 1][1]))
    return scaled


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _tail_percentile(n: int) -> float:
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return TAIL_LADDER[-1]


def _nearest_rank(sorted_values: list, p: float):
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


def _verify(requests, outdir: Path) -> tuple[list, list, str, list]:
    """Check the last pass's outputs; returns per-request errors, points, digests and the run hash."""
    errors, points, digests = [], [], []
    run_hash = hashlib.sha256()
    for i, request in enumerate(requests):
        path = outdir / f"{i}.out"
        data = path.read_bytes() if path.exists() else b""
        run_hash.update(data)
        digests.append(hashlib.sha256(data).hexdigest())
        try:
            points.append(oracle.check(request, data))
            errors.append(None)
        except (oracle.CheckFailed, AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            points.append(0)
            errors.append(f"{type(exc).__name__}: {exc}")
    return errors, points, run_hash.hexdigest(), digests


def _count_failures(requests, passes, errors, digests) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    notes: list[str] = []
    for p in passes:
        for i, request in enumerate(requests):
            attempted += 1
            problem = errors[i]
            if p["codes"][i] != request.code:
                problem = f"exit {p['codes'][i]}, expected {request.code}"
            elif not p["stderr_ok"][i]:
                problem = "stderr is not empty on success or lacks the 'aodecomp: ' prefix"
            elif p["sha256"][i] != digests[i]:
                problem = "output bytes differ between passes"
            if problem is not None:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"request {i} {' '.join(request.argv)}: {problem}")
    return attempted, failed, notes


def _layer_metrics(traced: list[dict], untraced_wall: float, import_ms: list) -> dict:
    """Per-layer metrics; times are medians over traced passes, each scaled like its requests."""
    first = traced[0]["trace"]
    metrics = {
        "setup.numpy_import_ms": (statistics.median([n for n, _ in import_ms]), "ms"),
        "setup.aodecomp_import_ms": (statistics.median([a for _, a in import_ms]), "ms"),
    }
    for name, (unit, span, field) in _SPAN_METRICS.items():
        if field == 0:
            metrics[name] = (first["spans"][span][0], unit)
        else:
            values = [p["trace"]["spans"][span][field] * p["scale"] for p in traced]
            metrics[name] = (statistics.median(values) / 1e6, unit)
    for name, unit in _COUNT_METRICS.items():
        metrics[name] = (first["counts"][name], unit)
    metrics["gc.collections"] = (statistics.median([p["trace"]["gc_collections"] for p in traced]), "count")
    metrics["gc.pause_ms"] = (statistics.median([p["trace"]["gc_pause_ns"] * p["scale"] for p in traced]) / 1e6, "ms")
    traced_wall = statistics.median([sum(p["scaled_ns"]) for p in traced]) / 1e9
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return metrics


def _unsteady_counts(traced: list[dict]) -> list[str]:
    first = traced[0]["trace"]
    names = [n for n in _COUNT_METRICS if any(p["trace"]["counts"][n] != first["counts"][n] for p in traced)]
    names += [
        n for n, (_, span, field) in _SPAN_METRICS.items()
        if field == 0 and any(p["trace"]["spans"][span][0] != first["spans"][span][0] for p in traced)
    ]
    return names


def run(args) -> dict:
    if not (SRC / "aodecomp" / "cli.py").is_file():
        raise BenchError(f"no aodecomp sources under {SRC}; run from a checkout of the repository")
    requests = workloads.generate(args.workload, args.seed, smoke=args.smoke)
    kind = workloads.REFERENCE[args.workload]
    env = _child_env()
    rundir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    outdir = rundir / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        requests_path = rundir / "requests.json"
        requests_path.write_text(json.dumps([r.argv for r in requests]), encoding="utf-8")

        samples = 1 if args.smoke else None
        _setup_seconds(env, rundir)  # warm-up: the first start compiles the package's bytecode
        if args.trace:
            import_ms = [_import_ms(env, rundir) for _ in range(samples or IMPORT_SAMPLES)]
            setup_raw, setup = [], []
        else:
            import_ms = []
            setup_raw, setup = zip(*(_setup_seconds(env, rundir) for _ in range(samples or SETUP_SAMPLES)))

        min_passes = 1 if args.smoke else (TRACE_MIN_PASSES if args.trace else MIN_PASSES)
        proc = _run(
            [sys.executable, str(HERE / "worker.py"), str(requests_path), str(outdir),
             str(args.seconds), str(min_passes), str(args.trace), kind],
            env, WORKER_TIMEOUT_S,
        )
        result = json.loads(proc.stdout)
        errors, points, output_sha256, digests = _verify(requests, outdir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    passes = result["passes"]
    for p in passes + result["traced"]:
        p["scaled_ns"] = _scaled_latency_ns(p, kind)
        p["scale"] = sum(p["scaled_ns"]) / sum(p["latency_ns"])
    attempted, failed, notes = _count_failures(
        requests, passes + result["traced"], errors, digests
    )
    walls = [sum(p["scaled_ns"]) / 1e9 for p in passes]
    wall = statistics.median(walls)
    latencies = sorted(ns / 1e6 for p in passes for ns in p["scaled_ns"])
    tail_p = _tail_percentile(len(requests) * min_passes)
    e2e = {
        "setup_s": statistics.median(setup) if setup else None,
        "wall_s": wall,
        "points_per_s": sum(points) / wall,
        "request_p50_ms": statistics.median(latencies),
        "request_tail_ms": _nearest_rank(latencies, tail_p),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "reference_task": kind,
        "machine": _machine(),
        "requests_per_pass": len(requests),
        "points_per_pass": sum(points),
        "measured_passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": notes,
        "output_sha256": output_sha256,
        "request_tail_percentile": tail_p,
        "request_count": len(latencies),
        "pass_wall_s": walls,
        "pass_raw_wall_s": [sum(p["latency_ns"]) / 1e9 for p in passes],
        "pass_speed_scale": [p["scale"] for p in passes],
        "setup_samples_s": list(setup),
        "setup_raw_samples_s": list(setup_raw),
        "end_to_end": {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END},
    }
    if args.trace:
        traced = result["traced"]
        layers = _layer_metrics(traced, wall, import_ms)
        traced_ms = statistics.median(sum(p["scaled_ns"]) for p in traced) / 1e6
        record["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        record["traced_passes"] = len(traced)
        record["traced_wall_ms"] = traced_ms
        # parse and write wrap no other span, so their total is their self time
        record["self_time_share"] = {
            name: layers[name][0] / traced_ms for name, (_, _, field) in _SPAN_METRICS.items() if field != 0
        }
        record["unsteady_counts"] = _unsteady_counts(traced)
    return record


def _print_report(record: dict, results_path: Path) -> None:
    m = record["machine"]
    print(f"aodecomp benchmark: workload={record['workload']} seed={record['seed']} trace={record['trace']}")
    print(f"  why: {record['why']}")
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} numpy={m['numpy']}")
    print(
        f"  {record['requests_per_pass']} requests and {record['points_per_pass']} points per pass, "
        f"{record['measured_passes']} measured passes, output_sha256={record['output_sha256']}"
    )
    e2e = record["end_to_end"]
    if record["trace"]:
        e2e = {"wall_s": e2e["wall_s"]}
        print("  untraced:")
    for name, metric in e2e.items():
        note = ""
        if name == "request_tail_ms":
            note = f"  (p{record['request_tail_percentile']:g} of {record['request_count']} requests)"
        print(f"  {name:<22} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"  {'failed_ratio':<22} {record['failed_ratio']:.6g} ratio  ({record['failed']} of {record['attempted']})")
    for note in record["failures"]:
        print(f"  FAILED {note}")
    if record["trace"]:
        print(f"  traced: {record['traced_passes']} passes, {record['traced_wall_ms']:.6g} ms per pass")
        for name, metric in record["per_layer"].items():
            share = record["self_time_share"].get(name)
            note = f"  ({share:.1%} of traced wall)" if share is not None else ""
            print(f"  {name:<38} {metric['value']:.6g} {metric['unit']}{note}")
        if record["unsteady_counts"]:
            print(f"  counts that changed between passes: {', '.join(record['unsteady_counts'])}")
    print(f"  record: {results_path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny requests and single samples, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        record = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    results_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    _print_report(record, results_path.relative_to(ROOT))
    section = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": section,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
