"""Per-step measurements, the recorder both solvers feed, oracle/reference
comparison metrics, run summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FluidState, PhysicalParams, SpatialGrid
from .forces import fd_log_gradient, fd_quantum_potential, moments

__all__ = [
    "RunRecord",
    "Recorder",
    "center_error",
    "dispersion_error",
    "center_energy_estimate",
    "smoothness",
    "l2_density_distance",
]


@dataclass
class RunRecord:
    """Time series of diagnostics for one run (step 0 = initial state).

    Series all have length steps_survived + 1.  snapshots maps step index to
    (rho, V) arrays at the snapshot cadence.  status holds the per-step
    stepper status ("ok" or "cfl_warning"); final_status records how the run
    ended ("ok" or a divergence label).
    """

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
    steps_survived: int
    final_status: str
    max_center_error: float = float("nan")
    max_var_error: float = float("nan")


class Recorder:
    """Collects a solver's run one recorded step at a time and turns it into
    its RunRecord.

    Each step becomes one row (t, mean, var, mass, max |V|, center energy,
    smoothness) plus its stepper status; every ``snapshot_every`` steps
    (0 = never) it also keeps a (rho, V) snapshot.
    """

    def __init__(self, grid: SpatialGrid, params: PhysicalParams, snapshot_every: int):
        self.grid = grid
        self.params = params
        self.snapshot_every = snapshot_every
        self._rows: list[tuple[float, ...]] = []
        self._status: list[str] = []
        self._snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def add(self, step: int, state: FluidState, moments, mass: float, status: str = "ok",
            rho: np.ndarray | None = None) -> None:
        """Record ``state``, whose moments and mass the solver has already
        measured, as step ``step``.  A snapshot stores ``rho`` (by default
        exp(ln rho)) and a copy of V."""
        self._rows.append((
            state.t, moments.mean, moments.var, mass, float(np.abs(state.V).max()),
            center_energy_estimate(state, self.grid, self.params),
            smoothness(state.ln_rho, self.grid),
        ))
        self._status.append(status)
        if self.snapshot_every > 0 and step % self.snapshot_every == 0:
            self._snapshots[step] = (np.exp(state.ln_rho) if rho is None else rho, state.V.copy())

    def finish(self, final_status: str) -> RunRecord:
        """The RunRecord of the steps added so far, with its summary errors
        against the ideal packet filled in."""
        t, mean, var, mass, max_abs_V, center_energy, smooth = (np.array(col) for col in zip(*self._rows))
        record = RunRecord(
            grid=self.grid, t=t, mean=mean, var=var, mass=mass, max_abs_V=max_abs_V,
            center_energy=center_energy, smoothness_series=smooth, status=self._status,
            snapshots=self._snapshots, steps_survived=len(self._rows) - 1, final_status=final_status,
        )
        record.max_center_error = float(np.max(center_error(record, self.params)))
        record.max_var_error = float(np.max(dispersion_error(record, self.params)))
        return record


def center_error(record: RunRecord, params: PhysicalParams) -> np.ndarray:
    """|mean(t) - a cos(omega t)| / a per step (absolute error if a = 0)."""
    expected = params.a * np.cos(params.omega * record.t)
    err = np.abs(record.mean - expected)
    if params.a > 0:
        err = err / params.a
    return err


def dispersion_error(record: RunRecord, params: PhysicalParams) -> np.ndarray:
    """|var(t)/(D/omega) - 1| per step."""
    return np.abs(record.var / params.equilibrium_sigma2() - 1.0)


def center_energy_estimate(state: FluidState, grid: SpatialGrid, params: PhysicalParams) -> float:
    """Energy estimate at the packet center: V(xbar)^2/2 + phi(xbar) + Q(xbar).

    Q comes from the log-derivative stencil chain, linearly interpolated at
    the (generically off-grid) measured mean inside the stencil-valid band
    x[2:-2] (held at the band's end value beyond it).  Interpolation reads
    Q only at the two band nodes j, j+1 that bracket the mean, so the chain
    runs on the six ln rho cells j-2..j+3 they need; the values are the same
    bits the full-grid chain gives there.
    """
    m = moments(state.ln_rho, grid)
    x = grid.positions
    j = min(max(int(x.searchsorted(m.mean, "right")) - 1, 2), grid.n - 4)
    Q = fd_quantum_potential(fd_log_gradient(state.ln_rho[j - 2 : j + 4], grid), grid, params)
    q_at_mean = float(np.interp(m.mean, x[j : j + 2], Q[2:4]))
    v_at_mean = float(np.interp(m.mean, x, state.V))
    return 0.5 * v_at_mean**2 + 0.5 * params.omega**2 * m.mean**2 + q_at_mean


def smoothness(ln_rho: np.ndarray, grid: SpatialGrid) -> float:
    """Mean squared second difference of ln rho over the packet core
    (|x - mean| <= 3 sigma)."""
    m = moments(ln_rho, grid)
    x = grid.positions
    d2 = ln_rho[2:] - 2 * ln_rho[1:-1] + ln_rho[:-2]
    core = np.abs(x[1:-1] - m.mean) <= 3.0 * math.sqrt(m.var)
    if not core.any():
        return float("nan")
    return float((d2[core] ** 2).mean())


def l2_density_distance(record_a: RunRecord, record_b: RunRecord) -> tuple[np.ndarray, np.ndarray]:
    """Relative L2 distance between density snapshots at matching steps.

    Returns (steps, distances) with one entry per step index present in both
    records: sqrt(sum (rho_a - rho_b)^2 dx) / sqrt(sum rho_a^2 dx).
    """
    common = sorted(set(record_a.snapshots) & set(record_b.snapshots))
    dx = record_a.grid.dx
    steps = np.array(common, dtype=int)
    dist = np.empty(len(common))
    for i, k in enumerate(common):
        rho_a = record_a.snapshots[k][0]
        rho_b = record_b.snapshots[k][0]
        num = np.sqrt(np.sum((rho_a - rho_b) ** 2) * dx)
        den = np.sqrt(np.sum(rho_a**2) * dx)
        dist[i] = num / den
    return steps, dist
