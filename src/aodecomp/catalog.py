"""Builtin analytic example systems with their known decompositions.

Each entry bundles the system with its provenance and, for the linear
entries, the constructed linear decomposition. The registry is built once at
import and is read-only afterwards. Every entry has a potential: the
registry refuses one without, so the CLI needs no guard against it.
"""

from __future__ import annotations

import math

from . import linear
from .core import DiffusionParams, Matrix2, ScalarField, SystemSpec, VectorField, record
from .errors import MissingPotential, UnknownSystem

HOPF = "hopf_limit_cycle"

# The oscillator in the polar chart (r, theta) = (x1, x2), unregistered. Its
# divergence is (1/r) d(r dr/dt)/dr = 2 (1 - 2 r^2), the Cartesian one at the
# mapped state.
HOPF_POLAR = SystemSpec(
    HOPF + "_polar",
    VectorField.from_stage("f1, f2 = x1 - x1**3, 1.0", divergence_fn=lambda r, _theta: 2.0 * (1.0 - 2.0 * r * r)),
)


@record
class CatalogEntry:
    name: str
    system: SystemSpec
    provenance: str
    decomposition: linear.LinearDecomposition | None = None


def _r2(x1, x2):
    return x1 * x1 + x2 * x2


# The oscillator's field, with _u = 1 - r^2 as in the closures below.
_HOPF_STAGE = """\
_u = 1.0 - (x1 * x1 + x2 * x2)
f1, f2 = -x2 + x1 * _u, x1 + x2 * _u"""


def _hopf_system() -> SystemSpec:
    def div(x1, x2):
        return 2.0 * (1.0 - 2.0 * _r2(x1, x2))

    def phi(x1, x2):
        r2 = _r2(x1, x2)
        return 0.25 * r2 * (r2 - 2.0)

    def grad(x1, x2):
        u = 1.0 - _r2(x1, x2)
        return -x1 * u, -x2 * u

    field = VectorField.from_stage(_HOPF_STAGE, divergence_fn=div)
    return SystemSpec(HOPF, field, potential=ScalarField(phi, gradient_fn=grad))


def _linear_entry(
    name: str,
    a: Matrix2,
    d: DiffusionParams,
    q: float,
    provenance: str,
) -> CatalogEntry:
    dec = linear.assemble_decomposition(a, d, q)
    system = SystemSpec.linear(name, a, potential=dec.potential(), friction=dec.friction)
    return CatalogEntry(name=name, system=system, provenance=provenance, decomposition=dec)


def _build_registry() -> dict[str, CatalogEntry]:
    entries = [
        CatalogEntry(
            name=HOPF,
            system=_hopf_system(),
            provenance="planar oscillator with attracting unit circle; radial law dr/dt = r - r^3",
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
    for entry in entries:
        if entry.system.potential is None:
            raise MissingPotential(f"catalog entry {entry.name!r} has no potential")
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
