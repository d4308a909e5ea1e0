"""Grids, physical parameters, fluid state and run configuration.

The simulated system is a 1D compressible fluid on a uniform grid, stored as
(ln rho, V).  Log-density is the native variable: both update equations and
both quantum-force estimators consume ln rho directly, and it keeps the deep
Gaussian tails representable.  This module holds types and their checks
only; the packet itself is stated in ``oracle``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SpatialGrid",
    "PhysicalParams",
    "FluidState",
    "RunConfig",
    "make_grid",
    "mass",
]

# The log-derivative force stencil reaches +/-3 cells from its evaluation
# point, so grids below 7 points cannot host a single interior evaluation.
MIN_GRID_POINTS = 7

ESTIMATORS = ("gaussian_fit", "finite_difference", "oracle_exact", "none")
NOISE_MODES = ("none", "initial", "per_step", "measurement")


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1D grid: positions x0 + j*dx for j in [0, n).  Rejects a
    non-integer n, non-finite x0, dx or dx^2, dx <= 0, a dx^2 that is not a
    normal float (the solvers divide by it), n < 7 (stencil width) and end
    positions or a span (n-1)*dx whose square is not finite (the trap, the
    moments and the reference square them)."""

    x0: float
    dx: float
    n: int

    def __post_init__(self):
        _require_integer("n", self.n)
        if not (math.isfinite(self.x0) and math.isfinite(self.dx * self.dx)):
            raise ValueError(f"grid x0, dx and dx^2 must be finite, got x0={self.x0}, dx={self.dx}")
        if self.dx <= 0:
            raise ValueError(f"grid spacing must be positive, got dx={self.dx}")
        if self.dx * self.dx < np.finfo(float).tiny:
            raise ValueError(f"grid spacing is too small to square, got dx={self.dx}")
        if self.n < MIN_GRID_POINTS:
            raise ValueError(f"need at least {MIN_GRID_POINTS} grid points, got n={self.n}")
        if not all(math.isfinite(v * v) for v in (self.x0, self.x_end, (self.n - 1) * self.dx)):
            raise ValueError(
                f"grid positions are too large to square, got x0={self.x0}, dx={self.dx}, n={self.n}")

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
    """Build a uniform grid with a float origin and spacing; the grid checks itself."""
    return SpatialGrid(float(x0), float(dx), n)


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
        # the forces square D and omega, the energies a, and float ** 2 raises on overflow
        for name in ("D", "omega", "a"):
            if not math.isfinite(getattr(self, name) * getattr(self, name)):
                raise ValueError(f"{name} is too large to square, got {getattr(self, name)}")
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


@dataclass(frozen=True)
class FluidState:
    """Time-stamped (ln rho, V) field pair, a value: no qfluid code writes
    into a state's arrays, so a step or a noise draw builds a new state and
    nothing needs to copy one."""

    t: float
    ln_rho: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class RunConfig:
    """Feedback-loop schedule and numerical policy for one run.

    estimator        how the quantum force is obtained each step:
                     gaussian_fit      moments of the measured density
                     finite_difference log-derivative stencils on the grid
                     oracle_exact      closed-form force of the kp = 0
                                       coherent packet, at every kp; at
                                       kp > 0 it is not the exact force
                                       (``OracleWave.force``)
                     none              no quantum force (classical fluid)
    noise            multiplicative exp(alpha) density perturbations,
                     alpha ~ U[0, noise_amplitude] at every cell: none,
                     initial (once, on the initial density), per_step
                     (fresh every step, on the fluid) or measurement (fresh
                     every step, only on the copy the force is measured on)
    snapshot_every   store (rho, V) snapshots every k steps (0 = off)

    The absorbing boundary strip is not a setting: ``integrator.sponge_active``
    derives it from the pressure and the estimator.  Every setting is
    checked here, so no solver checks it again.
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
            raise ValueError(f"noise_amplitude must be non-negative, got {self.noise_amplitude}")
        if self.snapshot_every < 0:
            raise ValueError(f"snapshot_every must be >= 0, got {self.snapshot_every}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def mass(ln_rho: np.ndarray, grid: SpatialGrid) -> float:
    """Total mass sum_j rho_j dx of the density exp(ln_rho)."""
    return float(np.add.reduce(np.exp(ln_rho))) * grid.dx
