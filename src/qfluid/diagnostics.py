"""Per-step measurements, the record of a fluid run and its summaries, the
density distance the reference cross-check reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FluidState, PhysicalParams, SpatialGrid
from .forces import moments
from .oracle import OracleWave

__all__ = [
    "RunRecord",
    "center_energy_estimate",
    "smoothness",
    "density_distance",
]


@dataclass(frozen=True)
class RunRecord:
    """Time series of diagnostics for one fluid run of ``params`` (step 0 =
    initial state), a frozen value built complete by ``integrator.run``.

    Series all have length steps_survived + 1.  snapshots maps step index to
    (rho, V) arrays at the snapshot cadence.  status holds the per-step
    stepper status ("ok" or "cfl_warning"); final_status records how the run
    ended ("ok" or a divergence label).  The error series and their
    maxima are read off the series and the record's own ``params``.
    """

    params: PhysicalParams
    grid: SpatialGrid
    t: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    mass: np.ndarray
    max_abs_V: np.ndarray
    center_energy: np.ndarray
    smoothness_series: np.ndarray
    status: list[str]
    snapshots: dict[int, tuple[np.ndarray, np.ndarray]]
    final_status: str

    @property
    def steps_survived(self) -> int:
        return len(self.t) - 1

    @property
    def center_error(self) -> np.ndarray:
        """|mean(t) - center(t)| / a per step, against the exact packet's
        ``OracleWave.center`` (absolute error if a = 0)."""
        err = np.abs(self.mean - OracleWave(self.params).center(self.t))
        return err / self.params.a if self.params.a > 0 else err

    @property
    def dispersion_error(self) -> np.ndarray:
        """|var(t)/(D/omega) - 1| per step."""
        return np.abs(self.var / self.params.equilibrium_sigma2() - 1.0)

    @property
    def max_center_error(self) -> float:
        return float(np.max(self.center_error))

    @property
    def max_var_error(self) -> float:
        return float(np.max(self.dispersion_error))


def center_energy_estimate(state: FluidState, grid: SpatialGrid, params: PhysicalParams) -> float:
    """Energy estimate at the packet center: V(xbar)^2/2 + phi(xbar) + Q(xbar).

    Q comes from the log-derivative stencil chain, linearly interpolated at
    the (generically off-grid) measured mean inside the stencil-valid band
    x[2:-2] (held at the band's end value beyond it).  Interpolation reads
    Q only at the two band nodes j, j+1 that bracket the mean, so both are
    evaluated in scalar arithmetic from the six ln rho cells j-2..j+3 they
    need, with the operations of ``fd_quantum_force``'s H and Q stages in
    their order (``h * h`` is numpy's square).  Both interpolations repeat
    ``np.interp``'s scalar formula, so the result is the same bits the
    full-grid chain and ``np.interp`` give.  A V(xbar) whose square
    overflows gives inf, as numpy's square would.
    """
    m = moments(state.ln_rho, grid)
    mean = m.mean
    x = grid.positions
    # x[i] <= mean < x[i + 1]: j clamps i into the stencil band, k into the grid
    i = int(x.searchsorted(mean, "right")) - 1
    j = min(max(i, 2), grid.n - 4)
    l0, l1, l2, l3, l4, l5 = state.ln_rho[j - 2 : j + 4].tolist()
    two_dx = 2 * grid.dx
    h1, h2, h3, h4 = (l2 - l0) / two_dx, (l3 - l1) / two_dx, (l4 - l2) / two_dx, (l5 - l3) / two_dx
    minus_D2 = -params.D**2
    q_j = minus_D2 * ((h3 - h1) / two_dx + 0.5 * (h2 * h2))
    q_j1 = minus_D2 * ((h4 - h2) / two_dx + 0.5 * (h3 * h3))
    x_j, x_j1 = x[j : j + 2].tolist()
    q_at_mean = _interp(mean, x_j, x_j1, q_j, q_j1)
    k = min(max(i, 0), grid.n - 2)
    x_k, x_k1 = x[k : k + 2].tolist()
    v_k, v_k1 = state.V[k : k + 2].tolist()
    v_at_mean = _interp(mean, x_k, x_k1, v_k, v_k1)
    try:
        kinetic = 0.5 * v_at_mean**2
    except OverflowError:
        kinetic = math.inf
    return kinetic + 0.5 * params.omega**2 * mean**2 + q_at_mean


def _interp(x: float, x0: float, x1: float, y0: float, y1: float) -> float:
    """``np.interp`` at x on its table's segment (x0, y0)-(x1, y1) that
    brackets x, or whose end node x lies beyond, in numpy's own scalar
    steps and so bit for bit: the node value at or beyond either node, else
    the slope form from the left node, retried from the right one on NaN."""
    if x <= x0:
        return y0
    if x >= x1:
        return y1
    slope = (y1 - y0) / (x1 - x0)
    y = slope * (x - x0) + y0
    if y != y:
        if x != x:
            return x
        y = slope * (x - x1) + y1
        if y != y and y0 == y1:
            y = y0
    return y


def smoothness(ln_rho: np.ndarray, grid: SpatialGrid) -> float:
    """Mean squared second difference of ln rho over the packet core
    (|x - mean| <= 3 sigma).

    The grid is sorted, so d = x - mean is too, and the core -r <= d <= r is
    one contiguous run [lo, hi) of the interior nodes: two ``searchsorted``
    calls on d find its ends exactly, and the second difference is taken on
    that slice alone.  Its sum of squares divided by the count is the same
    bits a boolean core mask and ``.mean()`` give.
    """
    m = moments(ln_rho, grid)
    r = 3.0 * math.sqrt(m.var)
    d = grid.positions - m.mean
    last = grid.n - 1
    lo = min(max(int(d.searchsorted(-r, "left")), 1), last)
    hi = min(max(int(d.searchsorted(r, "right")), 1), last)
    if hi <= lo:
        return float("nan")
    d2 = ln_rho[lo + 1 : hi + 1] - 2 * ln_rho[lo:hi] + ln_rho[lo - 1 : hi - 1]
    return float(np.add.reduce(d2 * d2)) / (hi - lo)


def density_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Relative L2 distance of two densities on one grid, sqrt(sum (rho_a -
    rho_b)^2) / sqrt(sum rho_a^2), both squares taken in one array; the
    cells' width dx would scale both sums alike, so neither carries it."""
    sq = rho_a - rho_b
    num = np.sqrt(np.sum(np.square(sq, out=sq)))
    den = np.sqrt(np.sum(np.square(rho_a, out=sq)))
    return float(num / den)

