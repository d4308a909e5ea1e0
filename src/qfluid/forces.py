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

# Cells per side on which the stencil estimator returns a linear
# extrapolation of its first valid values: the stencil itself carries no
# value on its outer 3 cells, and its 4th cell reads the boundary cell of
# ln rho, which the continuity update fills by extrapolation rather than by
# physics.
STENCIL_EDGE = 4


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
    shift of ln rho (a global density rescaling) cancels exactly.  One
    matrix-vector product of the grid's ``_moment_table`` with the weights
    w = exp(ln rho - max) gives the three sums (sum w, sum w (x - c),
    sum w (x - c)^2) about the grid midpoint c; then d = sum w (x - c)/sum w,
    mean = c + d and var = sum w (x - c)^2/sum w - d^2.  The subtraction
    magnifies the sums' rounding by kappa = 1 + d^2/var, so the variance's
    relative error is O(eps kappa) wherever the grid sits (the tests hold it
    to 64 eps kappa; 23 was the most measured, on 12288 cells).  Sums about
    the origin would magnify it by (mean^2 + var)/var instead, a factor
    that grows with x0^2 even for a packet at the grid's center.  The
    product sums in the BLAS kernel's order, so the last bits depend on the
    BLAS.  Every weight is >= 0 and the peak's is exp(0) = 1, so the total
    is >= 1 in any summation order, or NaN exactly when max ln rho is not
    finite: the one non-finite rule, NonFiniteDensityError.
    """
    w = ln_rho - np.maximum.reduce(ln_rho)
    np.exp(w, out=w)
    table, c = _moment_table(grid)
    total, first, second = np.dot(table, w).tolist()
    if not math.isfinite(total):
        raise NonFiniteDensityError("density weights are not summable")
    d = first / total
    var = second / total - d * d
    if var < (grid.dx / 10.0) ** 2:
        raise DegenerateDensityError(
            f"density variance {var:g} below ({grid.dx}/10)^2; distribution is delta-like"
        )
    return Moments(c + d, var)


@lru_cache(maxsize=16)
def _moment_table(grid: SpatialGrid) -> tuple[np.ndarray, float]:
    """The rows 1, x - c and (x - c)^2 that ``moments`` sums its weights
    against, built once per grid and read-only, and the shift c, the grid
    midpoint x0 + (n - 1) dx/2."""
    c = grid.x0 + (grid.n - 1) * grid.dx / 2
    shifted = grid.positions - c
    table = np.stack([np.ones(grid.n), shifted, np.square(shifted)])
    table.flags.writeable = False
    return table, c


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

    The chain consumes ln rho at j-3..j+3.  Each stage is built once, on the
    cells the next one reads: H on cells 1..n-2, Q on 2..n-3 and F, in its
    result, on 3..n-4.  The outer 3 cells are zeroed, then the
    ``STENCIL_EDGE`` cells per side take F[k] + o (F[k+1] - F[k]) at their
    offset o from the first valid cell k, and the mirror image on the
    right: constant bands would shear the boundary fluid against the forced
    interior, which the D^2-amplified stencil re-reads as a density ridge
    within a few steps, while the packet's force is linear in x.  On 7 and
    8 cells (every grid has at least 7) the extrapolation reads zeros.
    """
    Q = _quantum_potential(_log_gradient(ln_rho, grid.dx), grid.dx, params.D)
    F = np.empty(ln_rho.shape)
    out = F[3:-3]
    np.subtract(Q[:-2], Q[2:], out=out)
    out /= 2 * grid.dx
    F[:3] = F[-3:] = 0.0
    k = STENCIL_EDGE
    # in Python floats, the IEEE operations numpy would do; all four reads
    # come first, as the bands overlap on a 7-cell grid
    first, second = F[k : k + 2].tolist()
    second_last, last = F[-k - 2 : -k].tolist()
    d_left, d_right = second - first, last - second_last
    for o in range(-k, 0):
        F[k + o] = first + o * d_left
    for o in range(1, k + 1):
        F[o - k - 1] = last + o * d_right
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
