"""qfluid: a numerical laboratory that turns a classical 1D fluid into a
quantum-like system by feeding a generalized quantum force, computed from the
fluid's own density, back into its Euler/continuity evolution.

The flagship experiment is the non-spreading oscillating wave packet in a
harmonic trap, including its robustness to density noise, the effect of an
isentropic pressure term, and cross-validation against a direct solver of
the equivalent generalized Schrodinger equation.
"""

from .core import (
    FluidState,
    PhysicalParams,
    RunConfig,
    SpatialGrid,
    init_coherent_state,
    make_grid,
    mass,
)
from .diagnostics import (
    RunRecord,
    center_energy_estimate,
    center_error,
    density_distance,
    dispersion_error,
    smoothness,
)
from .forces import (
    DegenerateDensityError,
    ForceField,
    Moments,
    external_force,
    fd_log_gradient,
    fd_quantum_force,
    fd_quantum_potential,
    gaussian_fit_force,
    moments,
    pressure_force,
)
from .integrator import build_force_field, drift_kick_step, run, trajectory
from .oracle import OracleWave
from .presets import default_grid, default_params, preset, preset_names
from .reference import (
    CNOperator,
    cn_operator,
    cn_step,
    cross_check,
    fluid_to_wave,
    wave_to_fluid,
    wave_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "FluidState",
    "PhysicalParams",
    "RunConfig",
    "SpatialGrid",
    "init_coherent_state",
    "make_grid",
    "mass",
    "RunRecord",
    "center_energy_estimate",
    "center_error",
    "density_distance",
    "dispersion_error",
    "smoothness",
    "DegenerateDensityError",
    "ForceField",
    "Moments",
    "external_force",
    "fd_log_gradient",
    "fd_quantum_force",
    "fd_quantum_potential",
    "gaussian_fit_force",
    "moments",
    "pressure_force",
    "build_force_field",
    "drift_kick_step",
    "run",
    "trajectory",
    "OracleWave",
    "default_grid",
    "default_params",
    "preset",
    "preset_names",
    "CNOperator",
    "cn_operator",
    "cn_step",
    "cross_check",
    "fluid_to_wave",
    "wave_to_fluid",
    "wave_trajectory",
]
