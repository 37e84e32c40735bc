"""The frame at every point where f != 0, at every scale, and an equilibrium exactly where f = 0.

An equilibrium is a row with f1 == f2 == 0 (``field.equilibrium_mask``), and
s and t are taken on power-of-two unit copies of f and grad(phi)
(``field.unit_frame``), so no size of f or of x decides either. Checked here:

- Two small inputs decompose like their scaled copies: x' = diag(1, 2) x at
  (1e-11, 0) like at (1, 0), and x' = diag(1e-12, 2e-12) x at (1, 0) like
  x' = diag(1e12, 2e12) x there. For a linear field f = A x and
  grad(phi) = U x with U = -(D + Q)^-1 A, where Q solves a constraint
  homogeneous in A; so s, t, d and q are of degree 0 in x and in A.
- On every linear catalog system, friction, transverse, diffusion and
  gyration at 2^k p equal their values at p bit for bit, for k in
  [-1000, 500]: every product of A x and U x stays normal there, so f and g
  are exactly 2^k times their values at p, and their unit copies are the
  same. (2, -1) is a point where stable_node's f1 = -f2.
- On the oscillator's 3x3 grid of spacing 1e-160, f . f underflows, yet h_p
  is not 0 off the origin, and the identity |dphi/dt| = H_P holds to a few
  smallest subnormals (``test_tiny_oscillator_grid_keeps_the_identity``).
- Every catalog origin, zero_matrix everywhere and defective_nilpotent on
  x1 = 0 are still equilibria: ``decompose`` exits 1 there.
- The golden ``decompose`` entries where f . f overflows, stable_spiral at
  (1e200, -3e199) and --matrix -1,0.5,0.2,-2 at (1e250, 1e250), are judged
  against the exact frame (``test_overflow_frame_is_within_its_rounding_bounds``).
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from aodecomp import decompose_many, get, list_systems
from aodecomp.cli import main

LINEAR = [name for name in list_systems() if get(name).decomposition is not None]
FRAME = ("friction", "transverse", "diffusion", "gyration")
U = Fraction(1, 2**53)
ETA = Fraction(2) ** -1074


def _run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _frame(*argv: str) -> tuple:
    code, out, err = _run("decompose", *argv)
    assert (code, err) == (0, ""), err
    doc = json.loads(out)
    return tuple(doc[key] for key in (*FRAME, "singular_on_isopotential"))


@pytest.mark.parametrize(
    "small, scaled",
    [
        (("--matrix", "1,0,0,2", "--at", "1e-11,0"), ("--matrix", "1,0,0,2", "--at", "1,0")),
        (("--matrix", "1e-12,0,0,2e-12", "--at", "1,0"), ("--matrix", "1e12,0,0,2e12", "--at", "1,0")),
    ],
    ids=["small_x", "small_a"],
)
def test_small_inputs_decompose_like_their_scaled_copies(small, scaled):
    assert _frame(*small) == _frame(*scaled)


@pytest.mark.parametrize("name", LINEAR)
@pytest.mark.parametrize("p", [(1.0, -0.3), (2.0, -1.0)], ids=str)
def test_linear_frame_is_the_same_at_every_power_of_two(name, p):
    k = np.arange(-1000, 501)
    cols = decompose_many(get(name).system, np.ldexp(p[0], k), np.ldexp(p[1], k))
    # zero_matrix is at rest everywhere; no other linear system is at rest off the origin
    assert (cols.equilibrium.all() if name == "zero_matrix" else not cols.equilibrium.any())
    at_p = int(np.flatnonzero(k == 0)[0])
    for column in FRAME:
        bits = getattr(cols, column).view(np.uint64)
        assert (bits == bits[at_p]).all(), (column, k[bits != bits[at_p]][:5])


def test_tiny_oscillator_grid_keeps_the_identity():
    """h_p off the origin is nonzero, and | |phi_rate| - h_p | is at most 2 eta.

    At |x| <= sqrt(2) 1e-160, r^2 <= 2e-320 rounds 1 - r^2 to 1.0 exactly, so
    f = (-x2 + x1, x1 + x2) and grad(phi) = (-x1, -x2) are exact, and the
    exact H_P = -grad(phi) . f = r^2 is at least 1e-320. phi_rate =
    g1 f1 + g2 f2 takes three roundings, each off by at most half the smallest
    subnormal eta: 1.5 eta. h_p is formed on the unit copies, whose products
    are normal and round relatively (a few 2^-53 of r^2 < 1e-319, far below
    eta), and is scaled back once: eta / 2 more. So the gap is at most 2 eta.
    """
    code, out, _ = _run("report", "--system", "hopf_limit_cycle", "--grid", "-1e-160,1e-160,-1e-160,1e-160,3,3")
    assert code == 0
    points = json.loads(out)["points"]
    assert len(points) == 9
    for point in points:
        if point["at"] == [0.0, 0.0]:
            assert point["h_p"] == point["phi_rate"] == 0.0
            continue
        assert point["h_p"] > 0.0
        assert Fraction(point["identity_gap"]) <= 2 * ETA


@pytest.mark.parametrize(
    "name, at",
    [(name, at) for name in list_systems() for at in ("0,0", "-0.0,0", "0,-0.0")]
    + [("zero_matrix", at) for at in ("1,-0.3", "1e-300,5", "-7,1e300")]
    + [("defective_nilpotent", at) for at in ("0,1", "-0.0,-3", "0,1e-300", "0,1e300")],
)
def test_equilibria_exit_one(name, at):
    code, out, err = _run("decompose", "--system", name, "--at", at)
    assert code == 1
    assert out == ""
    assert err.startswith("aodecomp: ") and "is an equilibrium of" in err


# (decompose argv, A) for the golden entries where f . f overflows, in both formats
OVERFLOW = [
    (("--system", "stable_spiral", "--at", "1e200,-3e199"), (-0.5, 1.0, -1.0, -0.5)),
    (("--matrix", "-1,0.5,0.2,-2", "--at", "1e250,1e250"), (-1.0, 0.5, 0.2, -2.0)),
]


def _document(argv: tuple, fmt: str) -> dict:
    code, out, err = _run("decompose", *argv, "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        return json.loads(out)
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    return {key: [float(v) for v in value.split(";")] if ";" in value else value for key, value in rows.items()}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, a", OVERFLOW, ids=["stable_spiral", "matrix"])
def test_overflow_frame_is_within_its_rounding_bounds(argv, a, fmt):
    """Every frame value of the document against the exact frame of its own f and grad(phi).

    Every frame value, the frame residual included, is a function of the
    document's drift f and potential gradient g, so the exact frame is taken
    in ``Fraction`` from those floats: s = -(g . f) / F, t = (f1 g2 - f2 g1) / F with F = f . f,
    N = s^2 + t^2, d = s / N and q = -t / N. f is also checked against the
    exact A x: two products and a sum, within gamma_2 (|a_i1 x1| + |a_i2 x2|)
    with gamma_n = n u / (1 - n u) and u = 2^-53; 3 u is used.

    Bounds. Every nonzero component of f and of g lies within 2^-500 of its
    vector's largest, which the test asserts, so each product of the unit
    copies lies in [2^-1002, 1], every rounding is relative (at most u), and
    both the copies and the scale-back by 2**(e_g - e_f) are exact. With
    M_s = |g1 f1| + |g2 f2|: the numerator is off by at most gamma_2 M_s, F
    by a factor within gamma_2, and the quotient rounds once, so
    |s_hat - s| <= (gamma_2 (1 + u) M_s / F + (u + gamma_2) |s|) / (1 - gamma_2)
    <= 4 u (M_s / F + |s|) = B_s; likewise B_t with M_t = |f1 g2| + |f2 g1|.
    d and q have gradients of norm 1 / N in (s, t); with delta = B_s + B_t and
    delta^2 <= N / 12 (asserted), every point within delta of (s, t) has a
    squared norm of at least N / 2, so (s_hat, t_hat) moves d and q by at
    most 2 delta / N. N_hat (three roundings) and the quotient add
    4 u |d(s_hat, t_hat)| <= 4 u (|d| + 2 delta / N):
    B_d = 2 delta / N + 4 u (|d| + 2 delta / N), and B_q the same in |q|.
    The residual: s f1 + t f2 + g1 = 0 and -t f1 + s f2 + g2 = 0 exactly, so
    each computed row is (s_hat - s) f_i-terms plus three roundings on terms
    of sizes |s_hat f_i|, |t_hat f_j| and |g_i| <= (|s| + |t|) |f|:
    residual <= 2 (delta + 4 u (|s| + |t| + delta)) (|f1| + |f2|) = B_r, the
    factor 2 covering the (1 + u) factors.
    """
    doc = _document(argv, fmt)
    (x1, x2), (f1, f2), (g1, g2) = ([Fraction(v) for v in doc[key]] for key in ("at", "drift", "potential_gradient"))
    a11, a12, a21, a22 = (Fraction(v) for v in a)
    for f, terms in ((f1, (a11 * x1, a12 * x2)), (f2, (a21 * x1, a22 * x2))):
        assert abs(f - sum(terms)) <= 3 * U * sum(map(abs, terms))
    for pair in ((f1, f2), (g1, g2)):
        largest = max(map(abs, pair))
        assert all(v == 0 or abs(v) >= largest * Fraction(2) ** -500 for v in pair)

    ff = f1 * f1 + f2 * f2
    s, t = -(g1 * f1 + g2 * f2) / ff, (f1 * g2 - f2 * g1) / ff
    b_s = 4 * U * ((abs(g1 * f1) + abs(g2 * f2)) / ff + abs(s))
    b_t = 4 * U * ((abs(f1 * g2) + abs(f2 * g1)) / ff + abs(t))
    norm2 = s * s + t * t
    delta = b_s + b_t
    assert delta * delta <= norm2 / 12
    d, q = s / norm2, -t / norm2
    bounds = {
        "friction": (s, b_s),
        "transverse": (t, b_t),
        "diffusion": (d, 2 * delta / norm2 + 4 * U * (abs(d) + 2 * delta / norm2)),
        "gyration": (q, 2 * delta / norm2 + 4 * U * (abs(q) + 2 * delta / norm2)),
        "frame_residual": (0, 2 * (delta + 4 * U * (abs(s) + abs(t) + delta)) * (abs(f1) + abs(f2))),
    }
    for key, (exact, bound) in bounds.items():
        printed = Fraction(float(doc[key]))
        assert abs(printed - exact) <= bound, (key, float(doc[key]), float(exact), float(bound))
