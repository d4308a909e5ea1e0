"""Per-grid-point force decomposition.

Three ingredients act on the fluid velocity:

  external   harmonic trap force -omega^2 x
  quantum    the generalized quantum force, estimated either from a Gaussian
             fit of the density (its first two moments) or from log-density
             finite differences (the H = grad ln rho stencil chain)
  pressure   -kp * grad ln rho, the isentropic linear-pressure closure

Both quantum estimators and the pressure force depend on the density only
through ratios or log-derivatives, so they are invariant under rho -> c*rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import PhysicalParams, SpatialGrid

__all__ = [
    "Moments",
    "ForceField",
    "DegenerateDensityError",
    "moments",
    "gaussian_fit_force",
    "fd_log_gradient",
    "fd_quantum_potential",
    "fd_quantum_force",
    "pressure_force",
    "external_force",
]

class DegenerateDensityError(ValueError):
    """Density has collapsed to (near) a point; sigma^-4 force would explode."""


@dataclass(frozen=True)
class Moments:
    """Density-weighted mean and variance of position."""

    mean: float
    var: float


@dataclass(frozen=True)
class ForceField:
    """Total force decomposition over the grid (acceleration units);
    ``pressure`` is None where there is none (kp = 0)."""

    external: np.ndarray
    quantum: np.ndarray
    pressure: np.ndarray | None

    @property
    def total(self) -> np.ndarray:
        total = self.external + self.quantum
        if self.pressure is not None:
            total += self.pressure
        return total


def moments(ln_rho: np.ndarray, grid: SpatialGrid) -> Moments:
    """Mean and dispersion of position under the density exp(ln_rho).

    Weights are exponentiated relative to the running peak so that a uniform
    shift of ln rho (a global density rescaling) cancels exactly.  The
    weights w = exp(ln rho - max), then w x, then w (x - mean)^2 are built
    in place in two arrays, in the operations and order of those formulas.
    """
    w = ln_rho - np.maximum.reduce(ln_rho)
    np.exp(w, out=w)
    total = float(np.add.reduce(w))
    if not math.isfinite(total) or total <= 0:
        raise DegenerateDensityError("density weights are not summable")
    x = grid.positions
    wx = w * x
    mean = float(np.add.reduce(wx)) / total
    np.subtract(x, mean, out=wx)
    np.square(wx, out=wx)
    np.multiply(w, wx, out=wx)
    var = float(np.add.reduce(wx)) / total
    if var < (grid.dx / 10.0) ** 2:
        raise DegenerateDensityError(
            f"density variance {var:g} below ({grid.dx}/10)^2; distribution is delta-like"
        )
    return Moments(mean, var)


def gaussian_fit_force(ln_rho: np.ndarray, grid: SpatialGrid, params: PhysicalParams) -> np.ndarray:
    """Quantum force from a Gaussian fit of the density: D^2 (x - mean)/var^2.

    Moments are carried in physical units, so the analytic form applies
    directly; expressing positions in grid-index units instead would divide
    the same expression by dx^3, which is the finite-difference bookkeeping
    variant of this formula.
    """
    m = moments(ln_rho, grid)
    return params.D**2 * (grid.positions - m.mean) / m.var**2


def fd_log_gradient(ln_rho: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """H = grad ln rho by central differences; boundary entries are 0."""
    H = np.zeros(ln_rho.shape)
    H[1:-1] = (ln_rho[2:] - ln_rho[:-2]) / (2 * grid.dx)
    return H


def fd_quantum_potential(H: np.ndarray, grid: SpatialGrid, params: PhysicalParams) -> np.ndarray:
    """Q = -D^2 (grad.H + H^2/2) from a log-gradient field; zero where the
    stencil would touch the H boundary entries."""
    Q = np.zeros(H.shape)
    Q[2:-2] = -params.D**2 * (
        (H[3:-1] - H[1:-3]) / (2 * grid.dx) + 0.5 * H[2:-2] ** 2
    )
    return Q


def fd_quantum_force(ln_rho: np.ndarray, grid: SpatialGrid, params: PhysicalParams) -> np.ndarray:
    """Quantum force from log-density stencils alone: H at j+/-1, j+/-2, then
    Q at j+/-1, then the central difference (Q_{j-1} - Q_{j+1})/(2 dx).

    The chain consumes ln rho at j-3..j+3, so the outermost 3 points per
    side carry zero force; every grid has at least 7 points.
    """
    H = fd_log_gradient(ln_rho, grid)
    Q = fd_quantum_potential(H, grid, params)
    F = np.zeros(Q.shape)
    F[3:-3] = (Q[2:-4] - Q[4:-2]) / (2 * grid.dx)
    return F


def pressure_force(ln_rho: np.ndarray, grid: SpatialGrid, params: PhysicalParams) -> np.ndarray:
    """Isentropic pressure force -kp * grad ln rho (central differences)."""
    F = np.zeros(ln_rho.shape)
    F[1:-1] = -params.kp * (ln_rho[2:] - ln_rho[:-2]) / (2 * grid.dx)
    return F


@lru_cache(maxsize=16)
def external_force(grid: SpatialGrid, params: PhysicalParams) -> np.ndarray:
    """Harmonic trap force -omega^2 x, built once per grid and params and
    read-only."""
    F = -params.omega**2 * grid.positions
    F.flags.writeable = False
    return F
