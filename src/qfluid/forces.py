"""Per-grid-point force decomposition.

Three ingredients act on the fluid velocity:

  external   harmonic trap force -omega^2 x
  quantum    the generalized quantum force, estimated either from a Gaussian
             fit of the density (its first two moments) or from log-density
             finite differences (the H = grad ln rho stencil chain)
  pressure   -kp * grad ln rho, the isentropic linear-pressure closure

Both quantum estimators and the pressure force depend on the density only
through ratios or log-derivatives, so they are invariant under rho -> c*rho.
Every measurement takes the ln rho array it measures, not a ``FluidState``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import PhysicalParams, SpatialGrid

__all__ = [
    "Moments",
    "DegenerateDensityError",
    "NonFiniteDensityError",
    "moments",
    "gaussian_fit_force",
    "fd_quantum_force",
    "pressure_force",
    "external_force",
]

class DegenerateDensityError(ValueError):
    """Density has collapsed to (near) a point; sigma^-4 force would explode."""


class NonFiniteDensityError(DegenerateDensityError):
    """Density weights are not summable: max ln rho is NaN or +-inf."""


@dataclass(frozen=True)
class Moments:
    """Density-weighted mean and variance of position."""

    mean: float
    var: float


def moments(ln_rho: np.ndarray, grid: SpatialGrid) -> Moments:
    """Mean and dispersion of position under the density exp(ln_rho).

    Weights are exponentiated relative to the running peak so that a uniform
    shift of ln rho (a global density rescaling) cancels exactly.  The
    weights w = exp(ln rho - max), then w x, then w (x - mean)^2 are built
    in place in two arrays, in the operations and order of those formulas.
    The peak's weight exp(0) = 1 makes the total >= 1, or NaN exactly when
    max ln rho is not finite: the one non-finite rule, NonFiniteDensityError.
    """
    w = ln_rho - np.maximum.reduce(ln_rho)
    np.exp(w, out=w)
    total = float(np.add.reduce(w))
    if not math.isfinite(total):
        raise NonFiniteDensityError("density weights are not summable")
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


def fd_quantum_force(ln_rho: np.ndarray, grid: SpatialGrid, params: PhysicalParams) -> np.ndarray:
    """Quantum force from log-density stencils alone: H at j+/-1, j+/-2, then
    Q at j+/-1, then the central difference (Q_{j-1} - Q_{j+1})/(2 dx).

    The chain consumes ln rho at j-3..j+3, so the outermost 3 points per
    side carry zero force; every grid has at least 7 points.  Each stage is
    built once, on the cells the next one reads: H on cells 1..n-2, Q on
    2..n-3 and F, in its result, on 3..n-4.
    """
    Q = _quantum_potential(_log_gradient(ln_rho, grid.dx), grid.dx, params.D)
    F = np.empty(ln_rho.shape)
    out = F[3:-3]
    np.subtract(Q[:-2], Q[2:], out=out)
    out /= 2 * grid.dx
    F[:3] = F[-3:] = 0.0
    return F


def _log_gradient(ln_rho: np.ndarray, dx: float) -> np.ndarray:
    """(ln_rho[2:] - ln_rho[:-2]) / (2 dx): H on cells 1..n-2 of ln_rho."""
    H = np.subtract(ln_rho[2:], ln_rho[:-2])
    H /= 2 * dx
    return H


def _quantum_potential(H: np.ndarray, dx: float, D: float) -> np.ndarray:
    """-D^2 ((H[2:] - H[:-2]) / (2 dx) + 0.5 H[1:-1]^2): Q on the inner
    cells of the H cells given, built in place in the order of that
    formula, without writing into H."""
    Q = np.subtract(H[2:], H[:-2])
    Q /= 2 * dx
    half_square = np.square(H[1:-1])
    half_square *= 0.5
    Q += half_square
    Q *= -D**2
    return Q


def pressure_force(ln_rho: np.ndarray, grid: SpatialGrid, params: PhysicalParams) -> np.ndarray:
    """Isentropic pressure force -kp * grad ln rho (central differences),
    -kp (ln_rho[2:] - ln_rho[:-2]) / (2 dx) built in place in the interior;
    boundary entries are 0."""
    F = np.empty(ln_rho.shape)
    out = F[1:-1]
    np.subtract(ln_rho[2:], ln_rho[:-2], out=out)
    out *= -params.kp
    out /= 2 * grid.dx
    F[0] = F[-1] = 0.0
    return F


@lru_cache(maxsize=16)
def external_force(grid: SpatialGrid, params: PhysicalParams) -> np.ndarray:
    """Harmonic trap force -omega^2 x, built once per grid and params and
    read-only."""
    F = -params.omega**2 * grid.positions
    F.flags.writeable = False
    return F
