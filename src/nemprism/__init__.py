"""Tangent unit-vector fields on a rectangular box from rational maps.

The package builds conformal (and anticonformal) director configurations
from validated rational-map data, computes their topological invariants in
closed form and by independent numeric oracles, evaluates topological lower
bounds, closed-form upper bounds and exact quadrature energies, and sweeps
one-parameter families to locate energy minima.

Each module's ``__all__`` is its public list; the package re-exports them.
"""
from . import conformal, energy, errors, geometry, invariants, numerics, sweep
from .conformal import *
from .energy import *
from .errors import *
from .geometry import *
from .invariants import *
from .numerics import *
from .sweep import *

__version__ = "0.1.0"

__all__ = [
    *conformal.__all__,
    *energy.__all__,
    *errors.__all__,
    *geometry.__all__,
    *invariants.__all__,
    *numerics.__all__,
    *sweep.__all__,
    "__version__",
]
