"""The linear decomposition against oracles that do not share its formulas.

- Covariance: for a stable A, the stationary covariance Sigma of
  dx = A x dt + noise with diffusion D solves A Sigma + Sigma A^T = -2D, and
  the potential matrix must be its inverse, U = Sigma^-1 (Kwon, Ao &
  Thouless, PNAS 102:13029, 2005). Sigma comes from a 4x4 Kronecker system
  solved here with numpy, not from the library's gyration constraint.
- Trace near zero with a rank-one diffusion D = v v^T, where D + Q is
  invertible only through Q: the frame identities (S + T)(D + Q) = I and
  -(D + Q) U = A, and |dphi/dt| = H_P along the flow, with the family
  branch (trace exactly zero and v an eigenvector of A) and the unique
  branch (small nonzero trace) both drawn.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aodecomp import DiffusionParams, Matrix2, Point2, SystemSpec
from aodecomp.dissipation import phi_rate
from aodecomp.linear import FAMILY, UNIQUE, assemble_decomposition, solve_gyration
from helpers import friction_power

EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True, database=None)

unit = st.floats(-2.0, 2.0)
angle = st.floats(0.0, 2.0 * math.pi)


def as_array(m: Matrix2) -> np.ndarray:
    return np.array(m.rows())


def stationary_covariance(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Sigma with A Sigma + Sigma A^T = -2D: (A (x) I + I (x) A) vec(Sigma) = vec(-2D), row-major vec."""
    eye = np.eye(2)
    return np.linalg.solve(np.kron(a, eye) + np.kron(eye, a), (-2.0 * d).ravel()).reshape(2, 2)


@st.composite
def stable_systems(draw):
    """A stable A (trace <= -0.1, det >= 0.05) and a positive-definite D (eigenvalues >= 0.1)."""
    a11, a12, a21 = draw(unit), draw(unit), draw(unit)
    trace = -draw(st.floats(0.1, 4.0))
    a22 = trace - a11
    det = a11 * a22 - a12 * a21
    if det < 0.05:  # move a21 so that det = det_target, keeping the trace
        target = draw(st.floats(0.05, 4.0))
        if abs(a12) < 0.1:
            a12 = 1.0
        a21 = (a11 * a22 - target) / a12
    b = np.array([[draw(unit), draw(unit)], [draw(unit), draw(unit)]])
    d = b.T @ b + draw(st.floats(0.1, 1.0)) * np.eye(2)
    return Matrix2(a11, a12, a21, a22), DiffusionParams(float(d[0, 0]), float(d[0, 1]), float(d[1, 1]))


@EXAMPLES
@given(stable_systems())
def test_potential_matrix_is_the_inverse_stationary_covariance(system):
    a, d = system
    assert a.trace < 0.0 and a.det > 0.0
    sol = solve_gyration(a, d)
    assert sol.branch == UNIQUE
    u = as_array(assemble_decomposition(a, d, sol.q).potential_matrix)
    expected = np.linalg.inv(stationary_covariance(as_array(a), as_array(d.matrix())))
    assert np.abs(u - expected).max() <= 1e-11 * (1.0 + np.abs(expected).max())


@st.composite
def trace_near_zero_rank_one(draw):
    """(A, D = v v^T, q): A = R [[lam + tau, b], [c, -lam]] R^T with R the rotation taking e1 to v / |v|.

    Family branch: tau = c = 0, so trace(A) = 0 and A v = lam v, the
    constraint holds for every q and q is drawn. Unique branch: a small
    trace tau and c != 0, so v is not an eigenvector and q = rhs / tau.
    """
    theta, radius = draw(angle), draw(st.floats(0.2, 2.0))
    v1, v2 = radius * math.cos(theta), radius * math.sin(theta)
    lam, b = draw(unit), draw(unit)
    family = draw(st.booleans())
    if family:
        tau = c = 0.0
        q = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 3.0))
    else:
        tau = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1e-3, 0.1))
        c = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 2.0))
        q = None
    rotation = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    a = rotation @ np.array([[lam + tau, b], [c, -lam]]) @ rotation.T
    d = DiffusionParams(v1 * v1, v1 * v2, v2 * v2)
    return Matrix2(*(float(x) for x in a.ravel())), d, q, family


@EXAMPLES
@given(trace_near_zero_rank_one(), st.lists(st.tuples(unit, unit), min_size=3, max_size=3))
def test_trace_near_zero_rank_one_diffusion_frame_identities(case, points):
    a, d, q, family = case
    sol = solve_gyration(a, d)
    assert sol.branch == (FAMILY if family else UNIQUE)
    dec = assemble_decomposition(a, d, sol.q if q is None else q)
    s_plus_t = as_array(dec.friction + dec.transverse.matrix())
    d_plus_q = as_array(d.matrix() + dec.gyration.matrix())
    u, a_ = as_array(dec.potential_matrix), as_array(a)
    size = (1.0 + np.abs(s_plus_t).max()) * (1.0 + np.abs(d_plus_q).max())
    assert np.abs(s_plus_t @ d_plus_q - np.eye(2)).max() <= 1e-12 * size
    size = (1.0 + np.abs(d_plus_q).max()) * (1.0 + np.abs(u).max())
    assert np.abs(-d_plus_q @ u - a_).max() <= 1e-12 * size

    system = SystemSpec.linear("oracle", a, potential=dec.potential(), friction=dec.friction)
    for x1, x2 in points:
        x = Point2(x1, x2)
        xdot = a.apply(x)
        rate, power = phi_rate(system, x), friction_power(dec.friction, xdot.x1, xdot.x2)[0]
        scale = (1.0 + np.abs(u).max() + np.abs(s_plus_t).max()) * (1.0 + xdot.norm()) ** 2
        assert abs(abs(rate) - power) <= 1e-12 * scale
        assert rate <= 1e-12 * scale  # the potential never rises along the flow
