"""qfluid: a numerical laboratory that turns a classical 1D fluid into a
quantum-like system by feeding a generalized quantum force, computed from the
fluid's own density, back into its Euler/continuity evolution.

The flagship experiment is the non-spreading oscillating wave packet in a
harmonic trap, including its robustness to density noise, the effect of an
isentropic pressure term, and cross-validation against a direct solver of
the equivalent generalized Schrodinger equation.

Each module lists its own public names in its ``__all__``, and the package
exports exactly those, each from one module.  qfluid needs numpy alone: no
module imports scipy.
"""

from . import core, diagnostics, forces, integrator, oracle, presets, reference
from .core import *
from .diagnostics import *
from .forces import *
from .integrator import *
from .oracle import *
from .presets import *
from .reference import *

__version__ = "0.1.0"

# each module lists its own public names; the package exports them all
__all__ = [
    name
    for module in (core, diagnostics, forces, integrator, oracle, presets, reference)
    for name in module.__all__
]
