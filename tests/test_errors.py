"""Every class of ``aodecomp.errors`` survives ``copy.copy`` and ``pickle`` whole: its class, message and attributes.

A caller that runs requests in another process gets its errors back by
pickle, so a class whose ``__init__`` takes more than the message must still
rebuild; ``AodecompError.__reduce__`` does it for every subclass.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import numpy as np
import pytest

from aodecomp import Matrix2, NonFinite, Point2, SystemSpec, errors, integrate

CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if cls.__module__ == errors.__name__ and issubclass(cls, errors.AodecompError)
]


def _blown_up() -> NonFinite:
    boom = SystemSpec.linear("boom", Matrix2.diagonal(5.0, -1.0))
    with pytest.raises(NonFinite) as excinfo:
        integrate(boom, Point2(1.0, 1.0), dt=1e-3, t_end=10.0)
    return excinfo.value


# one instance of each class, built as the library builds it; a class added to errors needs an entry
INSTANCES = {
    "AodecompError": lambda: errors.AodecompError("base"),
    "SingularMatrix": lambda: errors.SingularMatrix(1e-300, "1e-300"),
    "EquilibriumPoint": lambda: errors.EquilibriumPoint("(0.0, 0.0) is an equilibrium of 'x'"),
    "MissingPotential": lambda: errors.MissingPotential("system 'x' has no potential"),
    "NotPSD": lambda: errors.NotPSD("friction matrix is not symmetric"),
    "AsymmetricU": lambda: errors.AsymmetricU(2.5, 1e-10, ("2.5", "1e-10")),
    "NonFinite": _blown_up,
    "NotFiniteQuantity": lambda: errors.NotFiniteQuantity("vector field", float("inf"), 3),
    "UnknownSystem": lambda: errors.UnknownSystem("nope", ("a", "b")),
}


def test_every_class_has_an_instance():
    assert sorted(cls.__name__ for cls in CLASSES) == sorted(INSTANCES)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if type(a).__module__.startswith("aodecomp"):  # a record, such as NonFinite's trajectory
        return type(a) is type(b) and all(_same(getattr(a, n), getattr(b, n)) for n in type(a).__annotations__)
    return a == b


@pytest.mark.parametrize("clone", [copy.copy, lambda exc: pickle.loads(pickle.dumps(exc))], ids=["copy", "pickle"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_an_error_round_trips(name, clone):
    exc = INSTANCES[name]()
    back = clone(exc)
    assert type(back) is type(exc)
    assert back.args == exc.args and str(back) == str(exc)
    assert vars(back).keys() == vars(exc).keys()
    assert all(_same(value, getattr(back, key)) for key, value in vars(exc).items())
