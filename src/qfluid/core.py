"""Grids, physical parameters, fluid state, and coherent-packet initial conditions.

The simulated system is a 1D compressible fluid on a uniform grid, stored as
(ln rho, V).  Log-density is the native variable: both update equations and
both quantum-force estimators consume ln rho directly, and it keeps the deep
Gaussian tails representable.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SpatialGrid",
    "PhysicalParams",
    "FluidState",
    "RunConfig",
    "make_grid",
    "init_coherent_state",
    "mass",
]

# The log-derivative force stencil reaches +/-3 cells from its evaluation
# point, so grids below 7 points cannot host a single interior evaluation.
MIN_GRID_POINTS = 7

ESTIMATORS = ("gaussian_fit", "finite_difference", "oracle_exact", "none")
NOISE_MODES = ("none", "initial", "per_step", "measurement")


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1D grid: positions x0 + j*dx for j in [0, n)."""

    x0: float
    dx: float
    n: int

    @cached_property
    def positions(self) -> np.ndarray:
        """Node positions, built once per grid and read-only."""
        x = self.x0 + self.dx * np.arange(self.n)
        x.flags.writeable = False
        return x

    def position(self, j: int) -> float:
        return self.x0 + j * self.dx

    @property
    def x_end(self) -> float:
        return self.position(self.n - 1)


def _require_integer(name: str, value) -> None:
    """Reject floats and bools where a count or seed is expected; numpy
    integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def make_grid(x0: float, dx: float, n: int) -> SpatialGrid:
    """Build a uniform grid; rejects non-finite x0 or dx, dx <= 0, a
    non-integer n and n < 7 (stencil width)."""
    _require_integer("n", n)
    if not (math.isfinite(x0) and math.isfinite(dx)):
        raise ValueError(f"grid origin and spacing must be finite, got x0={x0}, dx={dx}")
    if dx <= 0:
        raise ValueError(f"grid spacing must be positive, got dx={dx}")
    if n < MIN_GRID_POINTS:
        raise ValueError(f"need at least {MIN_GRID_POINTS} grid points, got n={n}")
    return SpatialGrid(float(x0), float(dx), int(n))


@dataclass(frozen=True)
class PhysicalParams:
    """Constants of one physical scenario.

    D       generalized quantum constant (length^2/time); plays the role of
            hbar/2m but may take any macroscopic value
    omega   angular frequency of the external harmonic force -omega^2 x
    a       oscillation amplitude of the packet center
    kp      pressure amplitude (squared sound speed); 0 disables pressure

    The fluid's total mass is 1, as psi = sqrt(rho) exp(iS/2D) fixes it.
    """

    D: float
    omega: float
    a: float = 0.0
    kp: float = 0.0

    def __post_init__(self):
        for name in ("D", "omega", "a", "kp"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.D <= 0:
            raise ValueError(f"D must be positive, got {self.D}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.a < 0:
            raise ValueError(f"a must be non-negative, got {self.a}")
        if self.kp < 0:
            raise ValueError(f"kp must be non-negative, got {self.kp}")

    def equilibrium_sigma2(self) -> float:
        """Variance D/omega of the non-spreading packet."""
        return self.D / self.omega

    def sigma(self) -> float:
        return math.sqrt(self.equilibrium_sigma2())


@dataclass
class FluidState:
    """Time-stamped (ln rho, V) field pair; mutated only by the integrator."""

    t: float
    ln_rho: np.ndarray
    V: np.ndarray

    def copy(self) -> "FluidState":
        return FluidState(self.t, self.ln_rho.copy(), self.V.copy())


@dataclass(frozen=True)
class RunConfig:
    """Feedback-loop schedule and numerical policy for one run.

    estimator        how the quantum force is obtained each step:
                     gaussian_fit      moments of the measured density
                     finite_difference log-derivative stencils on the grid
                     oracle_exact      closed-form coherent-packet force
                     none              no quantum force (classical fluid)
    noise            multiplicative exp(alpha) density perturbations,
                     alpha ~ U[0, noise_amplitude] at every cell: none,
                     initial (once, on the initial density), per_step
                     (fresh every step, on the fluid) or measurement (fresh
                     every step, only on the copy the force is measured on)
    snapshot_every   store (rho, V) snapshots every k steps (0 = off)

    The absorbing boundary strip is not a setting: ``integrator.sponge_active``
    derives it from the pressure and the estimator.
    """

    dt: float = 1.0
    steps: int = 64
    estimator: str = "gaussian_fit"
    noise: str = "none"
    noise_amplitude: float = 1.0
    seed: int = 0
    snapshot_every: int = 0

    def __post_init__(self):
        for name in ("dt", "noise_amplitude"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("steps", "seed", "snapshot_every"):
            _require_integer(name, getattr(self, name))
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}; choose from {ESTIMATORS}")
        if self.noise not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.noise!r}; choose from {NOISE_MODES}")
        if self.noise_amplitude < 0:
            raise ValueError("noise_amplitude must be non-negative")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")


def init_coherent_state(params: PhysicalParams, grid: SpatialGrid, t0: float = 0.0) -> FluidState:
    """Initialize the fluid on the exact oscillating-packet solution at time t0.

    ln rho_j = ln sqrt(omega/2 pi D) - (omega/2D)(x_j - a cos(omega t0))^2
    V_j      = -a omega sin(omega t0)   (uniform)
    """
    x = grid.positions
    center = params.a * math.cos(params.omega * t0)
    sigma = params.sigma()
    if center - 5 * sigma < grid.x0 or center + 5 * sigma > grid.x_end:
        warnings.warn(
            f"coherent packet (center {center:g}, sigma {sigma:g}) does not fit "
            f"within +/-5 sigma of the grid [{grid.x0:g}, {grid.x_end:g}]",
            stacklevel=2,
        )
    ln_peak = math.log(math.sqrt(params.omega / (2 * math.pi * params.D)))
    ln_rho = ln_peak - (params.omega / (2 * params.D)) * (x - center) ** 2
    V = np.full(grid.n, -params.a * params.omega * math.sin(params.omega * t0))
    return FluidState(float(t0), ln_rho, V)


def mass(ln_rho: np.ndarray, grid: SpatialGrid) -> float:
    """Total mass sum_j rho_j dx of the density exp(ln_rho)."""
    return float(np.exp(ln_rho).sum() * grid.dx)
