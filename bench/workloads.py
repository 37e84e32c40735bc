"""Seeded request lists for the two benchmark workloads.

A request is the argv of one ``aodecomp`` CLI call (without ``--out``), the
exit code its input must produce, and the parameters the checker needs to
verify the output against closed forms. The program under test sees only the
argv.

The seed draws grid bounds and aspect ratios, initial states, matrices,
diffusions, sample points and the request order. The amount of work per
request follows a fixed design table, so runs with different seeds measure
the same amount of compute and their timings can be compared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

HOPF = "hopf_limit_cycle"

WHY = {
    "grid_sweep": (
        "all six grid quantities and report --grid over all nine systems on 80^2-160^2 grids, "
        "plus 8 small decompose requests: per-point compute and per-cell serialization dominate"
    ),
    "trajectory": (
        "10k-20k step simulate runs over the catalog, one blowing up: "
        "RK4 stepping, Point2 churn and 7-column CSV dominate"
    ),
}

# The reference task of reference.py that scales each workload's times: the
# one that imitates its dominant work.
REFERENCE = {
    "grid_sweep": "compute",
    "trajectory": "compute",
}

# (kind, system, side): every grid quantity and both report formats twice,
# all nine catalog systems. A request samples about side^2 points.
_GRID_DESIGN = (
    ("potential", HOPF, 160),
    ("potential", "stable_spiral", 100),
    ("vector_field", "stable_node", 150),
    ("vector_field", "defective_nilpotent", 90),
    ("divergence", "saddle_tracezero", 160),
    ("divergence", HOPF, 110),
    ("dissipation_power", "repeated_diagonal", 130),
    ("dissipation_power", "center_conservative", 90),
    ("phi_rate", "zero_matrix", 140),
    ("phi_rate", "defective", 100),
    ("criteria_agreement", HOPF, 120),
    ("criteria_agreement", "stable_spiral", 80),
    ("report_json", HOPF, 110),
    ("report_json", "defective", 80),
    ("report_csv", "saddle_tracezero", 130),
    ("report_csv", "stable_node", 90),
)

# (system, polar, thousands of steps): one run per catalog system, the polar
# chart of the oscillator, and steps spread evenly over 10k-20k.
_TRAJECTORY_DESIGN = (
    (HOPF, False, 19),
    (HOPF, True, 18),
    ("stable_node", False, 10),
    ("saddle_tracezero", False, 17),
    ("repeated_diagonal", False, 11),
    ("zero_matrix", False, 12),
    ("defective", False, 16),
    ("defective_nilpotent", False, 13),
    ("stable_spiral", False, 15),
    ("center_conservative", False, 14),
)
TRAJECTORY_DT = 0.001
# saddle_tracezero grows like x1(0) * e^t and the integrator stops once a
# coordinate passes 1e12, i.e. before t = 30 whenever |x1(0)| > 0.094.
BLOWUP_SYSTEM = "saddle_tracezero"
BLOWUP_DT = 0.002
BLOWUP_T_END = 30.0

# Small decompose requests riding along in grid_sweep, so the field and
# linear layers are measured: unique (one with the default D = I), family,
# inconsistent (exit 2), and hopf points (one on the singular unit circle).
# They are fewer than the grid requests, so request_p50_ms stays a grid
# request's latency. The first request of each group asks for CSV.
_DECOMPOSE_UNIQUE = 3
_DECOMPOSE_FAMILY = 1
_DECOMPOSE_INCONSISTENT = 1
_DECOMPOSE_POINT = 3
_DECOMPOSE_SINGULAR = 1
_ON_CYCLE = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


@dataclass(frozen=True)
class Request:
    argv: list[str]
    code: int
    check: dict


def _num(x: float) -> str:
    return repr(float(x))


def _csv_list(values) -> str:
    return ",".join(_num(v) for v in values)


def _grid(rng: random.Random, side: int) -> list:
    nx = max(2, round(side * rng.uniform(0.85, 1.15)))
    ny = max(2, round(side * side / nx))
    xmin, xmax = -round(rng.uniform(1.2, 2.2), 4), round(rng.uniform(1.2, 2.2), 4)
    ymin, ymax = -round(rng.uniform(1.2, 2.2), 4), round(rng.uniform(1.2, 2.2), 4)
    return [xmin, xmax, ymin, ymax, nx, ny]


def _grid_text(grid: list) -> str:
    return ",".join([_num(v) for v in grid[:4]] + [str(grid[4]), str(grid[5])])


def _grid_requests(rng: random.Random, smoke: bool) -> list[Request]:
    requests = []
    for kind, system, side in _GRID_DESIGN:
        grid = _grid(rng, 6 if smoke else side)
        if kind.startswith("report_"):
            fmt = kind[len("report_"):]
            argv = ["report", "--system", system, "--grid", _grid_text(grid), "--format", fmt]
            check = {"type": "report", "system": system, "grid": grid, "format": fmt}
        else:
            argv = ["grid", "--system", system, "--grid", _grid_text(grid), "--quantity", kind]
            check = {"type": "grid", "system": system, "grid": grid, "quantity": kind}
        requests.append(Request(argv, 0, check))
    return requests


def _x0(rng: random.Random, r_min: float, r_max: float) -> tuple[float, float]:
    r = rng.uniform(r_min, r_max)
    theta = rng.uniform(-math.pi, math.pi)
    return round(r * math.cos(theta), 6), round(r * math.sin(theta), 6)


def _simulate(system: str, x0, dt: float, t_end: float, polar: bool, code: int) -> Request:
    argv = ["simulate", "--system", system, "--x0", _csv_list(x0), "--dt", _num(dt), "--t-end", _num(t_end)]
    if polar:
        argv.append("--polar")
    check = {"type": "simulate", "system": system, "x0": list(x0), "dt": dt, "t_end": t_end, "polar": polar}
    return Request(argv, code, check)


def _trajectory_requests(rng: random.Random, smoke: bool) -> list[Request]:
    requests = []
    for system, polar, thousands in _TRAJECTORY_DESIGN:
        steps = 200 if smoke else int((thousands + rng.random()) * 1000)
        x0 = _x0(rng, 0.1, 1.49)
        requests.append(_simulate(system, x0, TRAJECTORY_DT, steps / 1000, polar, 0))
    x1 = rng.uniform(0.3, 1.2) * rng.choice((-1.0, 1.0))
    x2 = rng.uniform(-0.8, 0.8)
    requests.append(_simulate(BLOWUP_SYSTEM, (round(x1, 6), round(x2, 6)), BLOWUP_DT, BLOWUP_T_END, False, 3))
    return requests


def grid_sweep(rng: random.Random, smoke: bool) -> list[Request]:
    """Grid and report requests (per-point compute and per-cell serialization)
    with a few small decompose requests; parsing, dynamics and linear do almost nothing."""
    requests = _grid_requests(rng, smoke) + _decompose_requests(rng)
    rng.shuffle(requests)
    return requests


def trajectory(rng: random.Random, smoke: bool) -> list[Request]:
    """Simulate runs: RK4 stepping and 7-column CSV; no per-point report."""
    requests = _trajectory_requests(rng, smoke)
    rng.shuffle(requests)
    return requests


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _pd_diffusion(rng: random.Random) -> list[float]:
    d11, d22 = _uniform(rng, 0.2, 2.0), _uniform(rng, 0.2, 2.0)
    d12 = round(rng.uniform(-0.8, 0.8) * math.sqrt(d11 * d22), 6)
    return [d11, d12, d22]


def _constraint_rhs(a: list[float], d: list[float]) -> float:
    return -a[2] * d[0] + (a[0] - a[3]) * d[1] + a[1] * d[2]


def _matrix_request(a: list[float], d: list[float] | None, branch: str, fmt: str) -> Request:
    argv = ["decompose", "--matrix", _csv_list(a)]
    if d is not None:
        argv += ["--d", _csv_list(d)]
    argv += ["--format", fmt]
    check = {
        "type": "decompose_matrix",
        "a": a,
        "d": d if d is not None else [1.0, 0.0, 1.0],
        "branch": branch,
        "format": fmt,
    }
    return Request(argv, 2 if branch == "inconsistent" else 0, check)


def _unique(rng: random.Random, with_d: bool) -> tuple[list[float], list[float] | None]:
    while True:
        a = [_uniform(rng, -2.0, 2.0) for _ in range(4)]
        if abs(a[0] + a[3]) >= 0.2:
            return a, _pd_diffusion(rng) if with_d else None


def _trace_zero(rng: random.Random) -> list[float]:
    a11, a12, a21 = (_uniform(rng, -2.0, 2.0) for _ in range(3))
    return [a11, a12, a21, -a11]


def _family(rng: random.Random, k: int) -> tuple[list[float], list[float]]:
    """Trace-zero A whose constraint right-hand side vanishes exactly."""
    if k % 2 == 0:
        return _trace_zero(rng), [0.0, 0.0, 0.0]
    a11, b = _uniform(rng, -2.0, 2.0), _uniform(rng, -2.0, 2.0)
    d = _uniform(rng, 0.2, 2.0)
    return [a11, b, b, -a11], [d, 0.0, d]


def _inconsistent(rng: random.Random) -> tuple[list[float], list[float]]:
    while True:
        a, d = _trace_zero(rng), _pd_diffusion(rng)
        if abs(_constraint_rhs(a, d)) >= 0.05:
            return a, d


def _hopf_point(rng: random.Random) -> tuple[float, float]:
    while True:
        x = _x0(rng, 0.1, 2.0)
        if abs(math.hypot(*x) - 1.0) >= 0.02:
            return x


def _decompose_requests(rng: random.Random) -> list[Request]:
    groups: list[list] = [[], [], [], []]
    for k in range(_DECOMPOSE_UNIQUE):
        groups[0].append(("unique", *_unique(rng, with_d=k != 0)))
    for k in range(_DECOMPOSE_FAMILY):
        groups[1].append(("family", *_family(rng, k)))
    for _ in range(_DECOMPOSE_INCONSISTENT):
        groups[2].append(("inconsistent", *_inconsistent(rng)))
    for k in range(_DECOMPOSE_POINT):
        at = _ON_CYCLE[k % 4] if k < _DECOMPOSE_SINGULAR else _hopf_point(rng)
        groups[3].append(("point", at, None))

    requests = []
    for group in groups:
        for k, (branch, first, second) in enumerate(group):
            fmt = "csv" if k % 4 == 0 else "json"
            if branch == "point":
                argv = ["decompose", "--system", HOPF, "--at", _csv_list(first), "--format", fmt]
                check = {"type": "decompose_point", "at": list(first), "format": fmt}
                requests.append(Request(argv, 0, check))
            else:
                requests.append(_matrix_request(first, second, branch, fmt))
    return requests


_GENERATORS = {
    "grid_sweep": grid_sweep,
    "trajectory": trajectory,
}


def generate(workload: str, seed: int, smoke: bool = False) -> list[Request]:
    """The workload's request list for this seed; identical seeds give identical lists."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), smoke)
