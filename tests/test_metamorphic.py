"""Relations the frame must keep under the plane's symmetries, checked on derandomized draws.

Each relation compares the program with itself on transformed inputs, so no
formula is copied into the test:

- scaling the drift, A -> cA with c > 0 and the same D: the constraint
  (a11 + a22) q = -a21 d11 + (a11 - a22) d12 + a12 d22 is homogeneous in A,
  so q is unchanged; S + T = (D + Q)^-1 is unchanged, so S is; and
  U = -(D + Q)^-1 A becomes cU;
- rotating the frame, A -> R A R^T and D -> R D R^T: the antisymmetric
  Q = qJ commutes with a rotation (R J R^T = J), so q is unchanged,
  S -> R S R^T and U -> R U R^T;
- the oscillator commutes with rotations (f(Rx) = R f(x), phi(Rx) = phi(x)),
  so ``report_many``'s h_p, div_f and phi_rate, its two verdicts, and
  ``decompose_many``'s s and t are the same at Rx as at x;
- reversing time, f -> -f with the same potential (``reversed_system``,
  whose divergence is the negated closed form), on every catalog system.

Bounds. eps is 2^-52 and bounds one rounding (twice the unit roundoff); |X|
is a matrix's largest entry magnitude, so |XY| <= 2|X||Y| for 2x2 matrices.
Each bound adds the first-order effect of the test's own rounding of the
transformed inputs (delta eps, relative to |A|, |D| or |x|) to the
roundings of the program on both sides, and is then doubled to cover the
second-order terms and the condition numbers being evaluated on rounded
data.

Linear path. With M = D + qJ: mu = |M^-1| = |M| / |det M| (the adjugate holds
the entries of M), kappa_M = |M| mu, and kappa_q = |A| (8|D| + 2|q|) / |tr A|.
- q = rhs / tr: perturbing A and D by delta|A| and delta|D| moves rhs by at
  most 8 delta |A||D| (four a-factors and four d-factors of the three terms)
  and tr by 2 delta |A|, so q by delta kappa_q. The program's rhs takes at
  most 4 roundings per term and tr 1, a backward error of 4 eps on A, so
  4 eps kappa_q per side, and the division eps|q|:
  B_q = 2 ((delta + 8) kappa_q + 2|q|) eps.
- S = sym(M^-1): |d(M^-1)| <= 4 mu^2 |dM|, with |dM| <= delta eps |D| + B_q.
  Per side, forming M (1 rounding, 4 eps mu^2 |M| = 4 eps kappa_M mu), det M
  (3 roundings on two products of size |M|^2, a relative 6 eps kappa_M),
  1 / det and the entries (2) and the symmetric part (1) give at most
  (10 kappa_M + 3) eps mu: B_S = 2 (4 mu^2 (delta eps |D| + B_q) +
  2 (10 kappa_M + 3) eps mu + delta_out eps |S|), with |S| <= mu.
- U = (-(M^-1 A) - A^T N^-1) / 2 with N = D - qJ, |N^-1| = mu and
  |U| <= 2 mu |A|: |dU| <= 2|A| |d(M^-1)| + 2 mu |dA|. Per side the two
  products (2 roundings on 2 mu |A|) and the mean (1 rounding) add
  4 eps mu |A| + eps |U| to 2|A| (10 kappa_M + 3) eps mu:
  B_U = 2 (8 mu^2 |A| (delta eps |D| + B_q) + 2 delta eps mu |A| +
  2 ((20 kappa_M + 10) eps mu |A| + eps |U|) + delta_out eps |U|).
- Scaling rounds each entry of cA once: delta = 1, delta_out = 0, and U's
  bound is taken on U / c; kappa_q, mu and kappa_M do not depend on c.
  Rotation forms R A R^T and R D R^T as (R X) R^T in float64 from cos and
  sin within 1 ulp: each step rounds twice on sums of size sqrt(2) times
  the input and carries R's 2 eps, about 14 eps of |X| in all, so
  delta = delta_out = 14, and each size and kappa is the larger of the
  two sides (|R X R^T| <= 2|X|).

Oscillator. With r^2 = |x|^2, u = 1 - r^2 and P = 1 + r^2: |u| <= P,
|grad phi| = r |u| <= r P and |f| = r sqrt(1 + u^2) <= sqrt(2) r P. Rx is
formed in float64 with an error of delta_x = 5 eps |x| (2 roundings on
sqrt(2) |x| and R's 2 eps), which moves r^2 by at most 2 delta_x eps r^2.
- div f = 2 (1 - 2 r^2): d(div)/d(r^2) = -4, and per side r^2 rounds twice
  and 1 - 2 r^2 once: B_div = 2 (8 delta_x r^2 + 4 (1 + 6 r^2)) eps.
- phi_rate = grad(phi) . f = -r^2 u^2 and h_p = s |f|^2 = r^2 u^2:
  d(r^2 u^2)/d(r^2) = u^2 - 2 r^2 u, at most 3 P^2. Per side u takes 3
  roundings (3 eps P), so each g_i errs by 4 eps r P and each f_i by 6 eps
  r P; grad(phi) . f then errs by 2 (4 sqrt(2) + 6) eps r^2 P^2 carried
  and 3 roundings of its own, at most 32 eps r^2 P^2, and h_p, that sum
  over the same |f|^2 and times it again, by 2 roundings more:
  B_h = 2 (6 delta_x + 68) eps r^2 P^2, which covers phi_rate too.
- s = u^2 / (1 + u^2) and t = u / (1 + u^2) have derivatives in u of at
  most 1. Per side their numerators err by 32 eps r^2 P^2 as above and
  |f|^2 = r^2 (1 + u^2) >= r^2 by 4 sqrt(2) 6 eps r^2 P^2 carried and 3
  roundings, at most 40 eps r^2 P^2; with the quotient's rounding,
  (32 + 40 + 1) eps P^2: B_st = 2 (2 delta_x r^2 + 146 P^2) eps.

Time reversal. The copy's field is the negation of the original's, value
for value, and negation is exact, as is rounding to nearest of a negated sum
or product: fl(-a - b) = -fl(a + b) and fl((-a) b) = -fl(a b). So:
- ``decompose_many``: f1 and f2 negate; g1 and g2 are the same potential's;
  f = 0 where it was, so the equilibrium mask is unchanged, and so are the
  exponents of the unit copies; grad(phi) . f and f1 d2(phi) - f2 d1(phi)
  on those copies negate, so s and t negate; s^2 + t^2 is unchanged, so the singular mask is, and
  d = s / (s^2 + t^2) and q = -t / (s^2 + t^2) negate. Bound 0, as values
  (a 0.0 may come back -0.0), with NaN where the original has NaN.
- ``report_many``: div_f negates (bound 0), so the conservative points stay
  conservative and dissipative and expanding trade places; phi_rate =
  grad(phi) . f negates (bound 0); h_p = s |f|^2 from the frame negates
  (bound 0), so on the oscillator, which has no friction matrix, h_p
  negates exactly and verdict_power, a test of |h_p|, is unchanged.
- A linear entry computes h_p = f^T S f from its friction matrix S, the
  copy from its frame: grad(phi) . f / |f|^2 * |f|^2, the original's
  phi_rate to two roundings. The two agree because the transverse part does no work:
  with M = D + qJ and U = -M^-1 A symmetric, grad(phi) . f =
  x^T U^T A x = -f^T S f. The program forms M^-1 within
  (10 kappa_M + 2) eps mu of the inverse of the exact M of the float data
  (as in B_S above), U as the symmetric part of -(M^-1 A) (the mean of
  it and its transpose), and f = A x and g = U x within 2 eps |A||x|
  and 2 eps |U||x|. So U = -M^-1 A + W with
  |W| <= (20 kappa_M + 7) eps mu |A| + alpha, where alpha is the largest
  entry of the antisymmetric part of M^-1 A for the exact M: zero when the
  float data satisfy the constraint exactly, and computed in rationals.
  With |U| <= 2 mu |A|, 2 |W| |x| |f| from W, 16 eps mu |A| |x| |f| from
  f, g, the rate and its two roundings, and 6 eps mu |f|^2 from S's split
  and the five roundings of f^T S f, doubled:
  B_h = 2 ((40 kappa_M + 30) eps mu |A| |x| |f| + 6 eps mu |f|^2 +
  2 alpha |x| |f| + 5 eta). The eta term covers underflow, since every f
  other than 0 is off the equilibria, however small: the original's eight
  roundings of f^T S f are each off by at most half a smallest subnormal
  eta where they underflow, 4 eta; the copy forms its product on the unit
  copies of f and grad(phi), where a rounding is relative, and scales it
  back once, eta / 2 more; a subnormal f or g, off by eta / 2 a rounding,
  moves either side by |f| eta or |g| eta, below 1e-307 eta. At an
  equilibrium (f = 0) both sides are 0. verdict_power is compared off
  | |h_p| - zero_tol | <= B_h.
- identity_gap and agree are computed from the columns above (| |phi_rate|
  - h_p | and the two verdicts), so they are not compared again; the copy's
  gap is about 2 |h_p|, since its H_P is negative and the identity
  |dphi/dt| = H_P holds only for the original.
The draws cover [-2, 2]^2 with no point excluded: equilibria and the
oscillator's unit circle are part of the relation (NaN and the singular
mask), and no product overflows there.

Excluded draws, so each frame is far from singular:
- linear: |tr A| >= 1e-3, far above the family branch's TRACE_ZERO_TOL
  (1 + |A|) even after c >= 0.1, and D with eigenvalues >= 0.1, so
  det(D +- Q) >= 0.01 stays far above invert2's singular threshold; kappa_q
  and kappa_M bound the rest;
- oscillator: |x| >= 0.1, away from the equilibrium at the origin, where the
  frame is undefined. The verdicts are compared only off r = 1 and
  r^2 = 1/2, where h_p and div f vanish: |1 - r^2| >= 1e-3 puts h_p at least
  r^2 1e-6 from zero_tol = 1e-9, and |1 - 2 r^2| >= 1e-3 puts |div f| at
  least 2e-3 from it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aodecomp import DiffusionParams, Matrix2, get, list_systems
from aodecomp.dissipation import report_many
from aodecomp.field import decompose_many
from aodecomp.linear import UNIQUE, assemble_decomposition, solve_gyration
from helpers import reversed_system

EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True, database=None)
EPS = np.finfo(float).eps
ETA = np.finfo(float).smallest_subnormal
ZERO_TOL = 1e-9

unit = st.floats(-2.0, 2.0)
angle = st.floats(0.0, 2.0 * math.pi)


def rotation(theta: float) -> np.ndarray:
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def as_array(m: Matrix2) -> np.ndarray:
    return np.array(m.rows())


def largest(x: np.ndarray) -> float:
    return float(np.abs(x).max())


@st.composite
def linear_requests(draw):
    """(A, D): |tr A| in [1e-3, 4], the other entries in [-2, 2], and D = B^T B + m I with m >= 0.1."""
    a11, a12, a21 = draw(unit), draw(unit), draw(unit)
    trace = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1e-3, 4.0))
    b = np.array([[draw(unit), draw(unit)], [draw(unit), draw(unit)]])
    d = b.T @ b + draw(st.floats(0.1, 1.0)) * np.eye(2)
    return Matrix2(a11, a12, a21, trace - a11), DiffusionParams(float(d[0, 0]), float(d[0, 1]), float(d[1, 1]))


def inverse_size(d: DiffusionParams, q: float) -> tuple[float, float]:
    """(mu, kappa_M) of the module docstring."""
    m = as_array(d.matrix()) + q * np.array([[0.0, 1.0], [-1.0, 0.0]])
    size = largest(m)
    mu = size / abs(np.linalg.det(m))
    return mu, size * mu


def condition(a: Matrix2, d: DiffusionParams, q: float) -> tuple[float, float, float]:
    """(kappa_q, mu, kappa_M) of the module docstring."""
    return a.max_abs() * (8.0 * d.max_abs() + 2.0 * abs(q)) / abs(a.trace), *inverse_size(d, q)


def bounds(sides, q: float, delta: float, delta_out: float) -> tuple[float, float, float]:
    """(B_q, B_S, B_U) of the module docstring, each size and kappa the largest over the sides, each an (A, D)."""
    kappa_q, mu, kappa_m = (max(values) for values in zip(*(condition(a, d, q) for a, d in sides)))
    a_size, d_size = max(a.max_abs() for a, _ in sides), max(d.max_abs() for _, d in sides)
    b_q = 2.0 * ((delta + 8.0) * kappa_q + 2.0 * abs(q)) * EPS
    inverse = (20.0 * kappa_m + 6.0) * EPS * mu
    b_s = 2.0 * (4.0 * mu * mu * (delta * EPS * d_size + b_q) + inverse + delta_out * EPS * mu)
    u_size = 2.0 * mu * a_size
    b_u = 2.0 * (
        8.0 * mu * mu * a_size * (delta * EPS * d_size + b_q) + 2.0 * delta * EPS * mu * a_size
        + 2.0 * ((20.0 * kappa_m + 10.0) * EPS * mu * a_size + EPS * u_size) + delta_out * EPS * u_size
    )
    return b_q, b_s, b_u


@EXAMPLES
@given(linear_requests(), st.floats(0.1, 10.0))
def test_scaling_the_drift_keeps_q_and_s_and_scales_u(request, c):
    a, d = request
    scaled = a.scaled(c)
    sol, sol_scaled = solve_gyration(a, d), solve_gyration(scaled, d)
    assert sol.branch == sol_scaled.branch == UNIQUE
    b_q, b_s, b_u = bounds([(a, d)], sol.q, delta=1.0, delta_out=0.0)
    assert abs(sol_scaled.q - sol.q) <= b_q
    dec, dec_scaled = assemble_decomposition(a, d, sol.q), assemble_decomposition(scaled, d, sol_scaled.q)
    assert largest(as_array(dec_scaled.friction) - as_array(dec.friction)) <= b_s
    assert largest(as_array(dec_scaled.potential_matrix) / c - as_array(dec.potential_matrix)) <= b_u


@EXAMPLES
@given(linear_requests(), angle)
def test_rotating_the_frame_keeps_q_and_rotates_s_and_u(request, theta):
    a, d = request
    r = rotation(theta)
    a_rot = Matrix2(*(float(v) for v in (r @ as_array(a) @ r.T).ravel()))
    d_matrix = r @ as_array(d.matrix()) @ r.T
    d_rot = DiffusionParams(float(d_matrix[0, 0]), float(d_matrix[0, 1]), float(d_matrix[1, 1]))
    sol, sol_rot = solve_gyration(a, d), solve_gyration(a_rot, d_rot)
    assert sol.branch == sol_rot.branch == UNIQUE
    b_q, b_s, b_u = bounds([(a, d), (a_rot, d_rot)], sol.q, delta=14.0, delta_out=14.0)
    assert abs(sol_rot.q - sol.q) <= b_q
    dec, dec_rot = assemble_decomposition(a, d, sol.q), assemble_decomposition(a_rot, d_rot, sol_rot.q)
    assert largest(as_array(dec_rot.friction) - r @ as_array(dec.friction) @ r.T) <= b_s
    assert largest(as_array(dec_rot.potential_matrix) - r @ as_array(dec.potential_matrix) @ r.T) <= b_u


@st.composite
def oscillator_points(draw):
    """Points of [-2, 2]^2 with |x| >= 0.1, as x1 and x2 columns."""
    points = draw(st.lists(st.tuples(unit, unit).filter(lambda p: math.hypot(*p) >= 0.1), min_size=1, max_size=40))
    return np.array([p[0] for p in points]), np.array([p[1] for p in points])


@EXAMPLES
@given(oscillator_points(), angle)
def test_the_oscillator_reads_the_same_at_a_rotated_point(points, theta):
    system = get("hopf_limit_cycle").system
    x1, x2 = points
    r = rotation(theta)
    y1, y2 = r @ np.vstack((x1, x2))
    r2 = x1 * x1 + x2 * x2
    p = 1.0 + r2
    delta_x = 5.0
    rep, rep_rot = report_many(system, x1, x2, zero_tol=ZERO_TOL), report_many(system, y1, y2, zero_tol=ZERO_TOL)
    assert np.all(np.abs(rep_rot.div_f - rep.div_f) <= 2.0 * (8.0 * delta_x * r2 + 4.0 * (1.0 + 6.0 * r2)) * EPS)
    b_h = 2.0 * (6.0 * delta_x + 68.0) * EPS * r2 * p * p
    assert np.all(np.abs(rep_rot.h_p - rep.h_p) <= b_h)
    assert np.all(np.abs(rep_rot.phi_rate - rep.phi_rate) <= b_h)
    off_cycle = np.abs(1.0 - r2) >= 1e-3
    assert np.array_equal(rep_rot.verdict_power[off_cycle], rep.verdict_power[off_cycle])
    off_zero_divergence = np.abs(1.0 - 2.0 * r2) >= 1e-3
    assert np.array_equal(rep_rot.verdict_divergence[off_zero_divergence], rep.verdict_divergence[off_zero_divergence])

    frame, frame_rot = decompose_many(system, x1, x2), decompose_many(system, y1, y2)
    assert not (frame.equilibrium.any() or frame_rot.equilibrium.any())
    b_st = 2.0 * (2.0 * delta_x * r2 + 146.0 * p * p) * EPS
    assert np.all(np.abs(frame_rot.friction - frame.friction) <= b_st)
    assert np.all(np.abs(frame_rot.transverse - frame.transverse) <= b_st)


def exact_asymmetry(a: Matrix2, d: DiffusionParams, q: float) -> float:
    """alpha of the module docstring: the antisymmetric part of M^-1 A, in rationals from the float data."""
    a11, a12, a21, a22 = map(Fraction, (a.a11, a.a12, a.a21, a.a22))
    m11, m12, m21, m22 = Fraction(d.d11), Fraction(d.d12) + Fraction(q), Fraction(d.d12) - Fraction(q), Fraction(d.d22)
    # M^-1 A = adj(M) A / det M
    p12, p21 = m22 * a12 - m12 * a22, m11 * a21 - m21 * a11
    return float(abs(p12 - p21) / (2 * (m11 * m22 - m12 * m21)))


def negated_verdicts(verdicts: np.ndarray) -> np.ndarray:
    """The divergence verdicts of -div: conservative stays, dissipative and expanding trade places."""
    return np.array([0, 2, 1], dtype=np.int8)[verdicts]


@st.composite
def plane_points(draw):
    """Points of [-2, 2]^2, as x1 and x2 columns."""
    points = draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=40))
    return np.array([p[0] for p in points]), np.array([p[1] for p in points])


@EXAMPLES
@given(st.sampled_from(list_systems()), plane_points())
def test_reversing_time_negates_the_frame_and_the_rates(name, points):
    entry = get(name)
    system, reversed_copy = entry.system, reversed_system(entry.system)
    x1, x2 = points

    frame, frame_rev = decompose_many(system, x1, x2), decompose_many(reversed_copy, x1, x2)
    assert np.array_equal(frame_rev.equilibrium, frame.equilibrium)
    assert np.array_equal(frame_rev.singular_on_isopotential, frame.singular_on_isopotential)
    for column in ("f1", "f2", "friction", "transverse", "diffusion", "gyration"):
        assert np.array_equal(getattr(frame_rev, column), -getattr(frame, column), equal_nan=True), column
    for column in ("g1", "g2"):
        assert np.array_equal(getattr(frame_rev, column), getattr(frame, column), equal_nan=True), column

    rep = report_many(system, x1, x2, zero_tol=ZERO_TOL)
    rep_rev = report_many(reversed_copy, x1, x2, zero_tol=ZERO_TOL)
    assert np.array_equal(rep_rev.div_f, -rep.div_f)
    assert np.array_equal(rep_rev.verdict_divergence, negated_verdicts(rep.verdict_divergence))
    assert np.array_equal(rep_rev.phi_rate, -rep.phi_rate)
    if entry.decomposition is None:  # the oscillator: h_p from the frame on both sides
        b_h = 0.0
    else:
        dec = entry.decomposition
        a, d, q = dec.a, dec.diffusion, dec.gyration.q
        mu, kappa_m = inverse_size(d, q)
        x, f = np.hypot(x1, x2), np.hypot(frame.f1, frame.f2)
        b_h = 2.0 * (
            (40.0 * kappa_m + 30.0) * EPS * mu * a.max_abs() * x * f + 6.0 * EPS * mu * f * f
            + 2.0 * exact_asymmetry(a, d, q) * x * f + 5.0 * ETA
        )
    assert np.all(np.abs(rep_rev.h_p + rep.h_p) <= b_h)
    clear = np.abs(np.abs(rep.h_p) - ZERO_TOL) > b_h
    assert np.array_equal(rep_rev.verdict_power[clear], rep.verdict_power[clear])
