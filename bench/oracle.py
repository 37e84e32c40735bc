"""Independent checks of the CLI outputs produced by the benchmark workloads.

Nothing here imports aodecomp. Values are recomputed with numpy from closed
forms and from the linear algebra of the decomposition:

- oscillator: phi = r^2 (r^2 - 2) / 4, div = 2 (1 - 2 r^2),
  H_P = r^2 (r^2 - 1)^2, and the exact flow r(t), theta(t) = theta0 + t;
- linear systems: phi = x^T U x / 2, div = tr A, H_P = (Ax)^T S (Ax) with
  S + T = (D + qJ)^-1 and U = -(D + qJ)^-1 A, the exact flow e^{At} x0, and
  for stable A with positive-definite D the covariance oracle U = Sigma^-1,
  where A Sigma + Sigma A^T = -2D.

``check(request, data)`` raises CheckFailed when the output bytes are wrong
and returns the number of points the request evaluated and emitted.
"""

from __future__ import annotations

import json
import math

import numpy as np

RTOL = 1e-9
FLOW_RTOL = 1e-7
ZERO_TOL = 1e-9
BLOWUP_LIMIT = 1e12
J = np.array([[0.0, 1.0], [-1.0, 0.0]])

HOPF = "hopf_limit_cycle"
# Published catalog fixtures: A (row-major), D = (d11, d12, d22), q.
CATALOG_LINEAR = {
    "stable_node": ((-1.0, 0.0, 0.0, -2.0), (1.0, 0.3, 1.0), -0.1),
    "saddle_tracezero": ((1.0, 0.0, 0.0, -1.0), (1.0, 0.0, 1.0), 1.0),
    "repeated_diagonal": ((-1.0, 0.0, 0.0, -1.0), (1.0, 0.0, 1.0), 0.0),
    "zero_matrix": ((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 1.0), 0.0),
    "defective": ((-1.0, 0.0, 1.0, -1.0), (1.0, 0.0, 1.0), 0.5),
    "defective_nilpotent": ((0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 1.0), 1.0),
    "stable_spiral": ((-0.5, 1.0, -1.0, -0.5), (1.0, 0.0, 1.0), -2.0),
    "center_conservative": ((0.0, 1.0, -1.0, 0.0), (0.0, 0.0, 0.0), 1.0),
}
FAMILY_DEFAULT_Q = 1.0

LINEAR_KEYS = (
    "kind", "system", "matrix", "spectral_class.kind", "spectral_class.values",
    "gyration_branch", "gyration_note", "diffusion", "gyration", "friction", "transverse",
    "potential_matrix", "potential_coefficients.x1^2", "potential_coefficients.x1*x2",
    "potential_coefficients.x2^2", "residuals.gyration_constraint",
    "residuals.potential_asymmetry", "residuals.drift_reconstruction",
)
POINT_KEYS = (
    "kind", "system", "at", "friction", "transverse", "diffusion", "gyration",
    "singular_on_isopotential", "drift", "potential_gradient", "frame_residual",
)
REPORT_HEADER = (
    "x1", "x2", "h_p", "div_f", "phi_rate", "identity_gap",
    "verdict_power", "verdict_divergence", "agree",
)
TRAJECTORY_HEADER = ("t", "x1", "x2", "phi", "phi_rate", "h_p", "div_f")


class CheckFailed(Exception):
    """An output that does not match its oracle."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(actual, expected, scale, rtol: float = RTOL, what: str = "value") -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    gap = np.abs(actual - expected)
    bad = ~(gap <= rtol * np.asarray(scale))
    if np.any(bad):
        i = int(np.flatnonzero(bad.ravel())[0])
        raise CheckFailed(
            f"{what} mismatch at {i}: got {actual.ravel()[i]!r}, expected {expected.ravel()[i]!r}"
        )


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which are not JSON."""

    def reject(name):
        raise CheckFailed(f"non-JSON constant {name} in document")

    try:
        return json.loads(text, parse_constant=reject)
    except ValueError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from None


# ---------------------------------------------------------------- models


class HopfModel:
    """x' = -y + x(1 - r^2), y' = x + y(1 - r^2) with phi = r^2 (r^2 - 2) / 4."""

    def field(self, x):
        u = 1.0 - np.sum(x * x, axis=1)
        return np.column_stack((-x[:, 1] + x[:, 0] * u, x[:, 0] + x[:, 1] * u))

    def phi(self, x):
        r2 = np.sum(x * x, axis=1)
        return r2 * (r2 - 2.0) / 4.0

    def grad(self, x):
        u = 1.0 - np.sum(x * x, axis=1)
        return -x * u[:, None]

    def div(self, x):
        return 2.0 * (1.0 - 2.0 * np.sum(x * x, axis=1))

    def h_p(self, x):
        r2 = np.sum(x * x, axis=1)
        return r2 * (r2 - 1.0) ** 2

    def scale(self, x):
        return 8.0 * (1.0 + np.sum(x * x, axis=1) ** 3)

    def flow(self, x0, t):
        r0 = math.hypot(*x0)
        rho = r0 * r0
        r = np.sqrt(rho / ((1.0 - rho) * np.exp(-2.0 * t) + rho))
        theta = math.atan2(x0[1], x0[0]) + t
        return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def _frame(a: np.ndarray, d: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Friction S and potential matrix U from S + T = (D + qJ)^-1, U = -(D + qJ)^-1 A."""
    m_inv = np.linalg.inv(d + q * J)
    u = -m_inv @ a
    return 0.5 * (m_inv + m_inv.T), 0.5 * (u + u.T)


def _diffusion(d) -> np.ndarray:
    return np.array([[d[0], d[1]], [d[1], d[2]]], dtype=float)


class LinearModel:
    """x' = A x with the frame built from (A, D, q)."""

    def __init__(self, a, d, q):
        self.a = np.array(a, dtype=float).reshape(2, 2)
        self.s, self.u = _frame(self.a, _diffusion(d), q)
        size = 1.0 + max(np.abs(self.a).max(), np.abs(self.s).max(), np.abs(self.u).max())
        self.k = 4.0 * size**3

    def field(self, x):
        return x @ self.a.T

    def phi(self, x):
        return 0.5 * np.einsum("ni,ij,nj->n", x, self.u, x)

    def grad(self, x):
        return x @ self.u.T

    def div(self, x):
        return np.full(len(x), np.trace(self.a))

    def h_p(self, x):
        f = self.field(x)
        return np.einsum("ni,ij,nj->n", f, self.s, f)

    def scale(self, x):
        return 1.0 + self.k * np.sum(x * x, axis=1)

    def flow(self, x0, t):
        """e^{At} x0 from the 2x2 closed form e^{st} (c(t) I + g(t) (A - sI))."""
        s = 0.5 * np.trace(self.a)
        disc = s * s - np.linalg.det(self.a)
        if disc > 1e-14:
            w = math.sqrt(disc)
            c, g = np.cosh(w * t), np.sinh(w * t) / w
        elif disc < -1e-14:
            w = math.sqrt(-disc)
            c, g = np.cos(w * t), np.sin(w * t) / w
        else:
            c, g = np.ones_like(t), t
        x0 = np.asarray(x0, dtype=float)
        bx0 = (self.a - s * np.eye(2)) @ x0
        return np.exp(s * t)[:, None] * (c[:, None] * x0 + g[:, None] * bx0)


def model(system: str):
    if system == HOPF:
        return HopfModel()
    return LinearModel(*CATALOG_LINEAR[system])


def _verdicts(div, h_p):
    """Divergence and power verdicts; ``clear`` is false within round-off of the zero tolerance."""
    v_div = np.where(np.abs(div) <= ZERO_TOL, "conservative", np.where(div < 0.0, "dissipative", "expanding"))
    v_pow = np.where(np.abs(h_p) <= ZERO_TOL, "conservative", "dissipative")
    band = 1e-3 * ZERO_TOL
    clear = (np.abs(np.abs(div) - ZERO_TOL) > band) & (np.abs(np.abs(h_p) - ZERO_TOL) > band)
    return v_div, v_pow, clear


# ---------------------------------------------------------------- CSV


def _csv_rows(text: str, header, trailer: bool = False) -> list[list[str]]:
    _require(text.endswith("\n"), "CSV does not end with a newline")
    lines = text[:-1].split("\n")
    _require(lines[0] == ",".join(header), f"CSV header {lines[0]!r}, expected {','.join(header)!r}")
    if trailer:
        _require(lines[-1].startswith("# truncated: "), "truncated CSV lacks the '# truncated' marker")
        lines = lines[:-1]
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == len(header) for r in rows), "CSV row with the wrong number of cells")
    return rows


def _floats(rows, columns) -> np.ndarray:
    try:
        return np.array([[float(r[c]) for c in columns] for r in rows], dtype=float).reshape(len(rows), len(columns))
    except ValueError as exc:
        raise CheckFailed(f"CSV cell is not a number: {exc}") from None


def _grid_points(grid) -> np.ndarray:
    xmin, xmax, ymin, ymax, nx, ny = grid
    xs = xmin + (xmax - xmin) * np.arange(nx) / (nx - 1)
    ys = ymin + (ymax - ymin) * np.arange(ny) / (ny - 1)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack((gx.ravel(), gy.ravel()))


def _check_points(actual: np.ndarray, grid) -> np.ndarray:
    expected = _grid_points(grid)
    _require(actual.shape == expected.shape, f"{len(actual)} points, expected {len(expected)}")
    _close(actual, expected, 1.0 + np.abs(expected), rtol=1e-12, what="grid coordinate")
    return expected


def _check_grid(req: dict, text: str) -> int:
    m, quantity = model(req["system"]), req["quantity"]
    header = ("x1", "x2", "f1", "f2") if quantity == "vector_field" else ("x1", "x2", "value")
    rows = _csv_rows(text, header)
    values = _floats(rows, range(len(header)))
    x = _check_points(values[:, :2], req["grid"])
    scale = m.scale(x)
    if quantity == "vector_field":
        _close(values[:, 2:], m.field(x), scale[:, None], what="vector_field")
        return len(x)
    value = values[:, 2]
    if quantity == "potential":
        _close(value, m.phi(x), scale, what="potential")
    elif quantity == "divergence":
        _close(value, m.div(x), scale, what="divergence")
    elif quantity == "dissipation_power":
        _close(value, m.h_p(x), scale, what="dissipation_power")
    elif quantity == "phi_rate":
        _close(value, -m.h_p(x), scale, what="phi_rate")
    else:
        v_div, v_pow, clear = _verdicts(m.div(x), m.h_p(x))
        expected = (v_div == v_pow).astype(float)
        _close(value[clear], expected[clear], 0.0, what="criteria_agreement")
        _require(np.all((value == 0.0) | (value == 1.0)), "criteria_agreement outside {0, 1}")
    return len(x)


def _check_report(req: dict, text: str) -> int:
    m = model(req["system"])
    if req["format"] == "json":
        doc = strict_json(text)
        _require(doc["kind"] == "dissipation_report" and doc["system"] == req["system"], "report header")
        _require(doc["zero_tol"] == ZERO_TOL, f"zero_tol {doc['zero_tol']!r}")
        points = doc["points"]
        at = np.array([p["at"] for p in points], dtype=float).reshape(len(points), 2)
        nums = np.array(
            [[p["h_p"], p["div_f"], p["phi_rate"], p["identity_gap"]] for p in points], dtype=float
        ).reshape(len(points), 4)
        v_pow = np.array([p["verdict_power"] for p in points])
        v_div = np.array([p["verdict_divergence"] for p in points])
        agree = np.array([p["agree"] for p in points], dtype=bool)
        _require(doc["summary"] == {"points": len(points), "disagreements": int(np.sum(~agree))}, "report summary")
    else:
        rows = _csv_rows(text, REPORT_HEADER)
        at, nums = _floats(rows, (0, 1)), _floats(rows, (2, 3, 4, 5))
        v_pow = np.array([r[6] for r in rows])
        v_div = np.array([r[7] for r in rows])
        _require(all(r[8] in ("true", "false") for r in rows), "agree cell is not true/false")
        agree = np.array([r[8] == "true" for r in rows], dtype=bool)
    x = _check_points(at, req["grid"])
    scale = m.scale(x)
    h_p = m.h_p(x)
    _close(nums[:, 0], h_p, scale, what="h_p")
    _close(nums[:, 1], m.div(x), scale, what="div_f")
    _close(nums[:, 2], -h_p, scale, what="phi_rate")
    _close(nums[:, 3], 0.0, scale, what="identity_gap")
    e_div, e_pow, clear = _verdicts(m.div(x), h_p)
    _require(np.all(v_div[clear] == e_div[clear]), "verdict_divergence differs from the oracle")
    _require(np.all(v_pow[clear] == e_pow[clear]), "verdict_power differs from the oracle")
    _require(np.all(agree == (v_div == v_pow)), "agree is not the verdict comparison")
    return len(x)


def _check_simulate(req: dict, text: str, truncated: bool) -> int:
    dt, t_end, x0 = req["dt"], req["t_end"], req["x0"]
    steps = int(round(t_end / dt))
    if req["polar"]:
        rows = _csv_rows(text, ("t", "r", "theta"))
        values = _floats(rows, range(3))
        _require(len(values) == steps + 1, f"{len(values)} rows, expected {steps + 1}")
        t = np.arange(steps + 1) * dt
        _close(values[:, 0], t, 1.0 + t, rtol=1e-12, what="t")
        exact = model(HOPF).flow(x0, t)
        _close(values[:, 1], np.hypot(exact[:, 0], exact[:, 1]), 1.0, rtol=FLOW_RTOL, what="r")
        _close(values[:, 2], math.atan2(x0[1], x0[0]) + t, 1.0 + t, rtol=FLOW_RTOL, what="theta")
        return len(values)

    m = model(req["system"])
    rows = _csv_rows(text, TRAJECTORY_HEADER, trailer=truncated)
    values = _floats(rows, range(7))
    if truncated:
        # Only saddle_tracezero blows up in the workloads: RK4 multiplies the
        # growing coordinate of diag(1, -1) by g per step.
        h = dt
        g = 1.0 + h + h * h / 2.0 + h**3 / 6.0 + h**4 / 24.0
        blowup = math.floor(math.log(BLOWUP_LIMIT / abs(x0[0])) / math.log(g)) + 1
        _require(abs(len(values) - blowup) <= 1, f"{len(values)} rows before blow-up, expected {blowup}")
        _require(blowup <= steps, "truncated run that should have finished")
    else:
        _require(len(values) == steps + 1, f"{len(values)} rows, expected {steps + 1}")
    t = np.arange(len(values)) * dt
    _close(values[:, 0], t, 1.0 + t, rtol=1e-12, what="t")
    x = values[:, 1:3]
    exact = m.flow(x0, t)
    _close(x, exact, 1.0 + np.abs(exact).max(axis=1, keepdims=True), rtol=FLOW_RTOL, what="state")
    scale = m.scale(x)
    h_p = m.h_p(x)
    _close(values[:, 3], m.phi(x), scale, what="phi")
    _close(values[:, 4], -h_p, scale, what="phi_rate")
    _close(values[:, 5], h_p, scale, what="h_p")
    _close(values[:, 6], m.div(x), scale, what="div_f")
    return len(values)


def _flatten(doc: dict) -> dict:
    flat = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            flat[key] = value
    return flat


def _csv_document(text: str, keys) -> dict:
    """Parse a key,value document; list values are ';'-joined and None is empty."""
    _require(text.endswith("\n"), "CSV does not end with a newline")
    lines = text[:-1].split("\n")
    _require(lines[0] == "key,value", f"CSV header {lines[0]!r}")
    doc = {}
    for line in lines[1:]:
        key, sep, value = line.partition(",")
        _require(sep == ",", f"CSV row without a value: {line!r}")
        doc[key] = value
    _require(tuple(doc) == tuple(keys), f"CSV keys {list(doc)}")
    return doc


def _as_floats(value, n: int) -> np.ndarray:
    if isinstance(value, str):
        try:
            value = [float(v) for v in value.split(";")]
        except ValueError as exc:
            raise CheckFailed(f"list cell is not numeric: {exc}") from None
    arr = np.array(value, dtype=float).ravel()
    _require(arr.size == n, f"expected {n} numbers, got {arr.size}")
    return arr


def _as_float(value) -> float | None:
    if value is None or value == "":
        return None
    return float(value)


def _as_bool(value) -> bool:
    if isinstance(value, str):
        _require(value in ("true", "false"), f"boolean cell {value!r}")
        return value == "true"
    return bool(value)


def _document(req: dict, text: str, keys) -> dict:
    if req["format"] == "json":
        doc = _flatten(strict_json(text))
        _require(tuple(doc) == tuple(keys), f"JSON keys {list(doc)}")
        return doc
    return _csv_document(text, keys)


def _spectral_kind(a: np.ndarray):
    tr, det = np.trace(a), np.linalg.det(a)
    disc = tr * tr - 4.0 * det
    if abs(disc) <= 1e-6 * (1.0 + np.abs(a).max()) ** 2:
        return None, None
    if disc > 0.0:
        root = math.sqrt(disc)
        return "real_distinct", np.array([(tr + root) / 2.0, (tr - root) / 2.0])
    return "complex_pair", np.array([tr / 2.0, math.sqrt(-disc) / 2.0])


def _lyapunov_covariance(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Sigma solving A Sigma + Sigma A^T = -2D by a Kronecker solve (row-major vec)."""
    eye = np.eye(2)
    op = np.kron(a, eye) + np.kron(eye, a)
    return np.linalg.solve(op, (-2.0 * d).ravel()).reshape(2, 2)


def _check_decompose_matrix(req: dict, text: str) -> int:
    doc = _document(req, text, LINEAR_KEYS)
    a = np.array(req["a"], dtype=float).reshape(2, 2)
    d = _diffusion(req["d"])
    _require(doc["kind"] == "linear_decomposition" and doc["system"] == "custom", "document header")
    _require(doc["gyration_branch"] == req["branch"], f"branch {doc['gyration_branch']!r}, expected {req['branch']!r}")
    _require(np.array_equal(_as_floats(doc["matrix"], 4), a.ravel()), "matrix is not the input")
    _require(np.array_equal(_as_floats(doc["diffusion"], 4), d.ravel()), "diffusion is not the input")
    q = _as_float(doc["gyration"])
    size_a, size_d = 1.0 + np.abs(a).max(), 1.0 + np.abs(d).max()
    if req["branch"] == "family":
        _require(q == FAMILY_DEFAULT_Q, f"family gyration {q!r}")
    qm = q * J
    constraint = a @ qm + qm @ a.T - (a @ d - d @ a.T)
    _close(constraint, 0.0, size_a * size_d * (1.0 + abs(q)), what="gyration constraint")

    m_inv = np.linalg.inv(d + qm)
    s, u = _frame(a, d, q)
    size = 1.0 + np.abs(m_inv).max() * size_a
    _close(_as_floats(doc["friction"], 4), s.ravel(), size, what="friction")
    _close(_as_float(doc["transverse"]), 0.5 * (m_inv[0, 1] - m_inv[1, 0]), size, what="transverse")
    u_doc = _as_floats(doc["potential_matrix"], 4).reshape(2, 2)
    _require(u_doc[0, 1] == u_doc[1, 0], "potential matrix is not symmetric")
    _close(u_doc, u, size, what="potential_matrix")
    _close(u_doc, -a.T @ np.linalg.inv(d - qm), size, what="potential_matrix (adjoint route)")
    _close(-(d + qm) @ u_doc, a, size * (1.0 + np.abs(d + qm).max()), what="drift reconstruction")
    coefficients = [doc["potential_coefficients.x1^2"], doc["potential_coefficients.x1*x2"], doc["potential_coefficients.x2^2"]]
    _close([float(c) for c in coefficients], [u[0, 0] / 2.0, u[0, 1], u[1, 1] / 2.0], size, what="potential coefficients")
    for key in ("residuals.gyration_constraint", "residuals.potential_asymmetry", "residuals.drift_reconstruction"):
        _close(float(doc[key]), 0.0, size * size_d, rtol=1e-8, what=key)

    stable = np.all(np.linalg.eigvals(a).real < -1e-3)
    if stable and np.all(np.linalg.eigvalsh(d) > 1e-3):
        sigma = _lyapunov_covariance(a, d)
        _close(u_doc, np.linalg.inv(sigma), size, rtol=1e-7, what="potential_matrix vs covariance oracle")

    kind, values = _spectral_kind(a)
    if kind is not None:
        _require(doc["spectral_class.kind"] == kind, f"spectral class {doc['spectral_class.kind']!r}, expected {kind!r}")
        _close(_as_floats(doc["spectral_class.values"], 2), values, size_a, rtol=1e-8, what="spectral values")
    return 1


def _check_decompose_point(req: dict, text: str) -> int:
    doc = _document(req, text, POINT_KEYS)
    x = np.array([req["at"]], dtype=float)
    hopf = HopfModel()
    _require(doc["kind"] == "point_decomposition" and doc["system"] == HOPF, "document header")
    _require(np.array_equal(_as_floats(doc["at"], 2), x[0]), "at is not the input")
    u = 1.0 - float(np.sum(x * x))
    scale = float(hopf.scale(x)[0])
    _close(_as_floats(doc["drift"], 2), hopf.field(x)[0], scale, what="drift")
    _close(_as_floats(doc["potential_gradient"], 2), hopf.grad(x)[0], scale, what="potential_gradient")
    _close(_as_float(doc["friction"]), u * u / (1.0 + u * u), scale, what="friction")
    _close(_as_float(doc["transverse"]), u / (1.0 + u * u), scale, what="transverse")
    _close(_as_float(doc["frame_residual"]), 0.0, scale, what="frame_residual")
    singular = _as_bool(doc["singular_on_isopotential"])
    if u == 0.0:
        _require(singular, "point on the unit circle not marked singular")
        _require(_as_float(doc["diffusion"]) is None and _as_float(doc["gyration"]) is None, "singular point with a dual pair")
    else:
        _require(not singular, "point off the unit circle marked singular")
        _close(_as_float(doc["diffusion"]), 1.0, scale, what="diffusion")
        _close(_as_float(doc["gyration"]), -1.0 / u, scale / (u * u), what="gyration")
    return 1


def check(request, data: bytes) -> int:
    """Verify one request's output bytes; returns the points it evaluated and emitted."""
    req = request.check
    if request.code == 2:
        _require(data == b"", "an inconsistent request wrote output")
        return 0
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise CheckFailed("output is not ASCII") from None
    _require(text, "empty output")
    kind = req["type"]
    if kind == "grid":
        return _check_grid(req, text)
    if kind == "report":
        return _check_report(req, text)
    if kind == "simulate":
        return _check_simulate(req, text, truncated=request.code == 3)
    if kind == "decompose_matrix":
        return _check_decompose_matrix(req, text)
    return _check_decompose_point(req, text)
