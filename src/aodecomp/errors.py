"""Exception types shared across the library."""

from __future__ import annotations


class AodecompError(Exception):
    """Base class for library errors."""


class SingularMatrix(AodecompError):
    """Matrix inversion requested below the singularity threshold."""

    def __init__(self, det: float):
        super().__init__(f"matrix is singular within tolerance (det={det!r})")
        self.det = det


class EquilibriumPoint(AodecompError):
    """Pointwise decomposition requested at a fixed point of the field."""


class MissingPotential(AodecompError):
    """Operation needs an analytic potential the system does not carry."""


class NotPSD(AodecompError):
    """Friction matrix fails the positive-semidefiniteness check."""


class AsymmetricU(AodecompError):
    """The potential matrix U = -(D + Q)^(-1) A is not symmetric.

    Signals a gyration value inconsistent with the constraint equation.
    Carries U, its transpose and the gap |u12 - u21| for inspection.
    """

    def __init__(self, u_forward, u_adjoint, gap: float):
        super().__init__(
            f"potential matrix is not symmetric (per-entry gap {gap:.3e}); "
            "the gyration value does not satisfy the constraint equation"
        )
        self.u_forward = u_forward
        self.u_adjoint = u_adjoint
        self.gap = gap


class NonFinite(AodecompError):
    """Trajectory integration blew up. Carries the partial trajectory."""

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class NotFiniteQuantity(AodecompError, ValueError):
    """A quantity computed at N points is NaN or infinite at one of them.

    Carries the quantity's name and the first row at which it is not finite,
    so a caller can say which result overflowed at which input.
    """

    def __init__(self, quantity: str, value: float, row: int):
        super().__init__(f"the {quantity} is not finite: {value!r}")
        self.quantity = quantity
        self.value = value
        self.row = row


class UnknownSystem(AodecompError):
    """Catalog lookup for a name that is not registered."""

    def __init__(self, name: str, known: tuple[str, ...]):
        super().__init__(f"unknown system {name!r}; known systems: {', '.join(known)}")
        self.name = name
        self.known = known
