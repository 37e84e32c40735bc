"""Fixed reference tasks that track how fast the host runs at this moment.

On a shared host the speed of one vCPU changes by up to 2x for seconds to
minutes at a time, as other tenants load the same physical cores. The
benchmark times a reference task next to the work and scales every time by
``nominal time / measured task time``: a change in the program moves the
scaled time, a change in the host mostly does not.

Different code slows by different factors under the same contention, so each
workload is scaled by the task that imitates its own dominant work, without
calling the program:

- ``compute``: frozen-dataclass float arithmetic with finiteness checks,
  floats formatted into CSV lines, a few 2x2 numpy solves, and building and
  using an argparse parser with subcommands. It tracks grid and simulate
  requests.
- ``request``: building and using that parser, then three small indented
  JSON documents, each written to a new file and removed. It tracks the
  fixed cost of a small decompose request, and interpreter start-up.

The tasks must never change, or scaled times stop being comparable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

REPEATS = 3


@dataclass(frozen=True)
class _Vec:
    x1: float
    x2: float

    def __post_init__(self):
        for v in (self.x1, self.x2):
            if not math.isfinite(v):
                raise ValueError(v)

    def __add__(self, other):
        return _Vec(self.x1 + other.x1, self.x2 + other.x2)

    def scaled(self, c: float):
        return _Vec(c * self.x1, c * self.x2)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("decompose", "simulate", "report", "grid", "catalog"):
        command = commands.add_parser(name, help=f"the {name} command")
        for option in ("--system", "--matrix", "--d", "--at", "--x0", "--grid", "--quantity"):
            command.add_argument(option, help=f"the value of {option}")
        command.add_argument("--format", choices=("json", "csv"), default="json")
        command.add_argument("--out")
    return parser


_ARGV = ["decompose", "--matrix=0.5,-1.25,1.0,-0.75", "--d=1.0,0.2,0.8", "--format", "json"]
_A = np.array([[2.0, -0.5], [0.25, 1.5]])


def compute_task(directory: str) -> float:
    """Per-point work; returns a checksum so nothing is optimised away."""
    p = _Vec(0.3, -0.7)
    step = _Vec(1e-3, 2e-3)
    lines = []
    for k in range(160):
        p = (p + step.scaled(math.sin(k * 0.1))).scaled(0.999)
        lines.append(",".join((repr(k * 1e-3), repr(p.x1), repr(p.x2), repr(math.hypot(p.x1, p.x2)))))
    doc = {"x": [p.x1, p.x2], "rows": len(lines), "matrix": [[1.5, -0.25], [0.75, 2.0]], "branch": "unique"}
    text = json.dumps(doc, indent=2) + "\n".join(lines)
    args = _parser().parse_args(_ARGV)
    total = 0.0
    for k in range(12):
        total += float(np.linalg.solve(_A + k * np.eye(2), np.array([p.x1, p.x2]))[0])
    return total + len(text) + len(args.matrix)


def request_task(directory: str) -> float:
    """The fixed cost of a small CLI request; returns a checksum."""
    args = _parser().parse_args(_ARGV)
    path = os.path.join(directory, "reference.out")
    total = 0.0
    for k in range(3):
        doc = {"matrix": [[1.5, -0.25 * k], [0.75, 2.0]], "branch": "unique", "values": [i * 0.37 for i in range(30)]}
        with open(path, "w", encoding="utf-8") as handle:
            total += handle.write(json.dumps(doc, indent=2) + "\n")
        os.remove(path)
    return total + len(args.matrix)


# (task, nominal ns): the nominal time is about the task's time on the 2-vCPU
# Xeon host the benchmark was defined on (Python 3.11, numpy 2.4) in its fast
# state, so scaled times read as wall times there.
TASKS = {
    "compute": (compute_task, 2_000_000),
    "request": (request_task, 1_500_000),
}


def probe_ns(kind: str, directory: str) -> int:
    """The shortest of REPEATS back-to-back times of the ``kind`` task, in ns."""
    task = TASKS[kind][0]
    clock = time.perf_counter_ns
    best = None
    for _ in range(REPEATS):
        start = clock()
        task(directory)
        elapsed = clock() - start
        best = elapsed if best is None or elapsed < best else best
    return best


def factor(kind: str, before_ns: float, after_ns: float) -> float:
    """Raw-to-scaled factor for work between two probes of the ``kind`` task."""
    return TASKS[kind][1] / ((before_ns + after_ns) / 2)
