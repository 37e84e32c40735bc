"""Friction/transverse decompositions and dissipation audits for planar systems.

The library rewrites a planar flow x' = f(x) as (S + T) x' = -grad(phi),
splitting the drift into a dissipative friction part, a work-free transverse
part and a potential gradient, and audits the two dissipation criteria
(dissipation power versus divergence) along closed forms and integrated
trajectories.
"""

from .core import (
    AntisymScalar,
    DiffusionParams,
    Matrix2,
    Point2,
    ScalarField,
    SystemSpec,
    VectorField,
    central_divergence,
    central_gradient,
    invert2,
    sym_antisym_split,
)
from .errors import (
    AodecompError,
    AsymmetricU,
    EquilibriumPoint,
    MissingPotential,
    NonFinite,
    NotFiniteQuantity,
    NotPSD,
    SingularMatrix,
    UnknownSystem,
)
from .linear import (
    LinearDecomposition,
    QSolution,
    SpectralClass,
    assemble_decomposition,
    classify_spectrum,
    lyapunov_equation_residual,
    quadratic_potential,
    reconstruct_drift,
    solve_gyration,
)
from .field import DecompositionColumns, PointDecomposition, decompose_many, point_decomposition
from .dissipation import DissipationReport, dissipation_power, divergence, phi_rate, report
from .dynamics import (
    Definition2Report,
    Trajectory,
    check_monotonicity,
    definition2_check,
    integrate,
    integrate_polar,
)
from .catalog import CatalogEntry, ExpectedForms, get, list_systems, radial_solution

__all__ = [
    "AntisymScalar",
    "AodecompError",
    "AsymmetricU",
    "CatalogEntry",
    "Definition2Report",
    "DecompositionColumns",
    "DiffusionParams",
    "DissipationReport",
    "EquilibriumPoint",
    "ExpectedForms",
    "LinearDecomposition",
    "Matrix2",
    "MissingPotential",
    "NonFinite",
    "NotFiniteQuantity",
    "NotPSD",
    "Point2",
    "PointDecomposition",
    "QSolution",
    "ScalarField",
    "SingularMatrix",
    "SpectralClass",
    "SystemSpec",
    "Trajectory",
    "UnknownSystem",
    "VectorField",
    "assemble_decomposition",
    "central_divergence",
    "central_gradient",
    "check_monotonicity",
    "classify_spectrum",
    "decompose_many",
    "definition2_check",
    "dissipation_power",
    "divergence",
    "get",
    "integrate",
    "integrate_polar",
    "invert2",
    "list_systems",
    "lyapunov_equation_residual",
    "phi_rate",
    "point_decomposition",
    "quadratic_potential",
    "radial_solution",
    "reconstruct_drift",
    "report",
    "solve_gyration",
    "sym_antisym_split",
]

__version__ = "0.1.0"
