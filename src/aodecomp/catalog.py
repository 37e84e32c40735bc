"""Builtin analytic example systems with their known decompositions.

Each entry bundles the system itself with closed-form reference pieces used
as test fixtures: the expected friction/transverse/diffusion/gyration
closures for the nonlinear oscillator, and the constructed linear
decomposition for the linear entries. The registry is built once at import
and is read-only afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import linear
from .core import CoordFn, DiffusionParams, Matrix2, Point2, ScalarField, SystemSpec, VectorField
from .errors import UnknownSystem

HOPF = "hopf_limit_cycle"


@dataclass(frozen=True)
class ExpectedForms:
    """Analytic reference closures for a system, where known in closed form.

    The gyration closure is defined only off the unit circle; its sign is
    fixed by inverting friction*I + transverse*J, giving -1/(1 - r^2).
    """

    friction: Callable[[Point2], float] | None = None
    transverse: Callable[[Point2], float] | None = None
    diffusion: Callable[[Point2], float] | None = None
    gyration: Callable[[Point2], float] | None = None
    potential: Callable[[Point2], float] | None = None
    potential_gradient: Callable[[Point2], Point2] | None = None
    divergence: Callable[[Point2], float] | None = None
    dissipation_power: Callable[[Point2], float] | None = None


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    system: SystemSpec
    provenance: str
    decomposition: linear.LinearDecomposition | None = None
    expected: ExpectedForms | None = None


def _r2(x1, x2):
    return x1 * x1 + x2 * x2


def _hopf_system() -> tuple[SystemSpec, ExpectedForms]:
    def field(x1, x2):
        u = 1.0 - _r2(x1, x2)
        return -x2 + x1 * u, x1 + x2 * u

    def div(x1, x2):
        return 2.0 * (1.0 - 2.0 * _r2(x1, x2))

    def jac(p: Point2) -> Matrix2:
        return Matrix2(
            1.0 - 3.0 * p.x1 * p.x1 - p.x2 * p.x2,
            -1.0 - 2.0 * p.x1 * p.x2,
            1.0 - 2.0 * p.x1 * p.x2,
            1.0 - p.x1 * p.x1 - 3.0 * p.x2 * p.x2,
        )

    def phi(x1, x2):
        r2 = _r2(x1, x2)
        return 0.25 * r2 * (r2 - 2.0)

    def grad(x1, x2):
        u = 1.0 - _r2(x1, x2)
        return -x1 * u, -x2 * u

    system = SystemSpec.analytic(
        HOPF,
        VectorField(
            evaluate=CoordFn(field, vector=True), analytic_divergence=CoordFn(div), analytic_jacobian=jac
        ),
        potential=ScalarField(evaluate=CoordFn(phi), analytic_gradient=CoordFn(grad, vector=True)),
    )
    expected = ExpectedForms(
        friction=lambda p: (1.0 - _r2(p.x1, p.x2)) ** 2 / (1.0 + (1.0 - _r2(p.x1, p.x2)) ** 2),
        transverse=lambda p: (1.0 - _r2(p.x1, p.x2)) / (1.0 + (1.0 - _r2(p.x1, p.x2)) ** 2),
        diffusion=lambda p: 1.0,
        gyration=lambda p: -1.0 / (1.0 - _r2(p.x1, p.x2)),
        potential=system.potential.evaluate,
        potential_gradient=system.potential.analytic_gradient,
        divergence=system.field.analytic_divergence,
        dissipation_power=lambda p: _r2(p.x1, p.x2) * (_r2(p.x1, p.x2) - 1.0) ** 2,
    )
    return system, expected


def _linear_entry(
    name: str,
    a: Matrix2,
    d: DiffusionParams,
    q: float,
    provenance: str,
) -> CatalogEntry:
    dec = linear.assemble_decomposition(a, d, q)
    system = SystemSpec.linear(name, a, potential=dec.potential())
    return CatalogEntry(name=name, system=system, provenance=provenance, decomposition=dec)


def _build_registry() -> dict[str, CatalogEntry]:
    hopf_system, hopf_expected = _hopf_system()
    entries = [
        CatalogEntry(
            name=HOPF,
            system=hopf_system,
            provenance="planar oscillator with attracting unit circle; radial law dr/dt = r - r^3",
            expected=hopf_expected,
        ),
        _linear_entry(
            "stable_node",
            Matrix2.diagonal(-1.0, -2.0),
            DiffusionParams(1.0, 0.3, 1.0),
            -0.1,
            "distinct negative eigenvalues -1, -2 with correlated diffusion",
        ),
        _linear_entry(
            "saddle_tracezero",
            Matrix2.diagonal(1.0, -1.0),
            DiffusionParams.identity(),
            1.0,
            "eigenvalues +1/-1; zero trace leaves the gyration a free family parameter",
        ),
        _linear_entry(
            "repeated_diagonal",
            Matrix2.diagonal(-1.0, -1.0),
            DiffusionParams.identity(),
            0.0,
            "repeated eigenvalue -1 with full eigenspace; gyration vanishes",
        ),
        _linear_entry(
            "zero_matrix",
            Matrix2.zero(),
            DiffusionParams.identity(),
            0.0,
            "zero drift; degenerate conservative case with a flat potential",
        ),
        _linear_entry(
            "defective",
            Matrix2(-1.0, 0.0, 1.0, -1.0),
            DiffusionParams.identity(),
            0.5,
            "repeated eigenvalue -1 with a single eigenvector (unit subdiagonal)",
        ),
        _linear_entry(
            "defective_nilpotent",
            Matrix2(0.0, 0.0, 1.0, 0.0),
            DiffusionParams(0.0, 0.0, 1.0),
            1.0,
            "nilpotent shear; zero eigenvalue, conservative with a flat direction",
        ),
        _linear_entry(
            "stable_spiral",
            Matrix2(-0.5, 1.0, -1.0, -0.5),
            DiffusionParams.identity(),
            -2.0,
            "complex pair -0.5 +/- i; rotation with contraction",
        ),
        _linear_entry(
            "center_conservative",
            Matrix2(0.0, 1.0, -1.0, 0.0),
            DiffusionParams.zero(),
            1.0,
            "pure rotation; zero diffusion, conservative on every circle",
        ),
    ]
    return {entry.name: entry for entry in entries}


_REGISTRY = _build_registry()


def get(name: str) -> CatalogEntry:
    """Return the registered entry, raising UnknownSystem for other names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSystem(name, tuple(_REGISTRY)) from None


def list_systems() -> list[str]:
    """Registered system names, in registration order."""
    return list(_REGISTRY)


def radial_solution(r0: float, t: float) -> float:
    """Closed-form radius of the builtin oscillator started at radius r0.

    Solves dr/dt = r - r^3:  r(t)^2 = r0^2 / ((1 - r0^2) exp(-2t) + r0^2).
    """
    if r0 == 0.0:
        return 0.0
    rho0 = r0 * r0
    return math.sqrt(rho0 / ((1.0 - rho0) * math.exp(-2.0 * t) + rho0))
