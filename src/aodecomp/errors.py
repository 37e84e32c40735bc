"""Exception types shared across the library."""

from __future__ import annotations


class AodecompError(Exception):
    """Base class for library errors; a copy or pickle is rebuilt from its class, ``args`` and ``__dict__``."""

    def __reduce__(self):  # Exception's passes ``args`` to __init__, which takes more than the message in subclasses
        return type(self).__new__, (type(self), *self.args), self.__dict__


class SingularMatrix(AodecompError):
    """Matrix inversion requested below the singularity threshold; ``shown`` is the det's ``core.scaled_repr`` text."""

    def __init__(self, det: float, shown: str):
        super().__init__(f"matrix is singular within tolerance (det={shown})")
        self.det = det
        self.shown = shown


class EquilibriumPoint(AodecompError):
    """Pointwise decomposition requested at a fixed point of the field."""


class MissingPotential(AodecompError):
    """Operation needs an analytic potential the system does not carry."""


class NotPSD(AodecompError):
    """Friction matrix fails the positive-semidefiniteness check."""


class AsymmetricU(AodecompError):
    """A gyration value q violates the constraint equation A Q + Q A^T = A D - D A^T.

    The potential matrix U = -(D + Q)^(-1) A is symmetric exactly when q
    satisfies it. Carries the constraint residual and the bound it exceeds,
    and ``shown``, their texts from ``core.scaled_repr``.
    """

    def __init__(self, residual: float, bound: float, shown: tuple[str, str]):
        self.shown = shown
        super().__init__(
            "potential matrix is not symmetric: the gyration value does not satisfy the constraint equation "
            f"(residual {self.shown[0]} > bound {self.shown[1]})"
        )
        self.residual = residual
        self.bound = bound


class NonFinite(AodecompError):
    """Trajectory integration blew up. Carries the partial trajectory."""

    def __init__(self, message: str, trajectory):
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
