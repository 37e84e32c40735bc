"""Closed-loop request runner, started by run.py in a fresh interpreter.

One client sends the workload's requests one after another through
``aodecomp.cli.main(argv + ["--out", path])`` in this process, after import
has finished, and repeats the whole list for a number of passes. Request i
always writes ``<outdir>/<i>.out``; its sha256 is taken after every attempt,
outside the timed call, so run.py can check that every pass produced the
same bytes as the output it verifies.

Before a pass, after it, and between requests whenever PROBE_EVERY_NS has
passed, the worker times the workload's reference task of ``reference.py``,
so run.py can scale each request's time by the host's speed around it.

Usage: worker.py REQUESTS_JSON OUTDIR SECONDS MIN_PASSES TRACE REFERENCE

Prints one JSON object: the measured passes, with TRACE=1 the traced passes
with their layer snapshots, and the peak resident set size of this process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import reference
from aodecomp import cli

PROBE_EVERY_NS = 100_000_000


def run_pass(requests: list[list[str]], outdir: str, kind: str) -> dict:
    latency, codes, stderr_ok, digests = [], [], [], []
    probes = []  # [index of the next request, reference time in ns]
    clock = time.perf_counter_ns
    last_probe = None
    for i, argv in enumerate(requests):
        if last_probe is None or clock() - last_probe >= PROBE_EVERY_NS:
            probes.append([i, reference.probe_ns(kind, outdir)])
            last_probe = clock()
        path = os.path.join(outdir, f"{i}.out")
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = clock()
            try:
                code = cli.main(argv + ["--out", path])
            except Exception as exc:  # a traceback is a failed request, not a crashed run
                code = -1
                err.write(f"uncaught {type(exc).__name__}: {exc}")
            latency.append(clock() - start)
        message = err.getvalue()
        codes.append(code)
        stderr_ok.append(message == "" if code == 0 else message.startswith("aodecomp: "))
        try:
            with open(path, "rb") as handle:
                digests.append(hashlib.sha256(handle.read()).hexdigest())
        except FileNotFoundError:
            digests.append(hashlib.sha256(b"").hexdigest())
    probes.append([len(requests), reference.probe_ns(kind, outdir)])
    return {"latency_ns": latency, "probes": probes, "codes": codes, "stderr_ok": stderr_ok, "sha256": digests}


def run_passes(requests, outdir, kind: str, seconds: float, min_passes: int, tracer=None) -> tuple[list, list]:
    """Passes over the list for about ``seconds`` (at least ``min_passes``).

    A further pass starts only if the last one, repeated, would end by the
    deadline, so a run lasts ``seconds`` however long a pass takes. With a
    tracer, every untraced pass is followed by a traced one, so both sides
    of ``trace.overhead_ratio`` see the same host conditions.
    """
    passes, traced = [], []
    deadline = time.monotonic() + seconds
    last = 0.0
    while len(passes) < min_passes or time.monotonic() + last <= deadline:
        start = time.monotonic()
        passes.append(run_pass(requests, outdir, kind))
        if tracer is not None:
            tracer.reset()
            with tracer.installed():
                result = run_pass(requests, outdir, kind)
            result["trace"] = tracer.snapshot()
            traced.append(result)
        last = time.monotonic() - start
    return passes, traced


def main(argv: list[str]) -> int:
    requests_path, outdir, seconds, min_passes, trace, kind = argv
    with open(requests_path, encoding="utf-8") as handle:
        requests = json.load(handle)
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
    passes, traced = run_passes(requests, outdir, kind, float(seconds), int(min_passes), tracer)
    result = {"passes": passes, "traced": traced, "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
