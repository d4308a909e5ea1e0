"""Independent integrator of the generalized Schrodinger equation.

The hydrodynamic feedback system (Euler + continuity + quantum force) is
claimed to be equivalent to

    D^2 psi_xx + i D psi_t - [(phi + w)/2] psi = 0,
    phi = omega^2 x^2 / 2,   w = kp ln|psi|^2   (isentropic pressure term),

via psi = sqrt(rho) exp(i S / 2D), V = 2 D grad(theta), rho = |psi|^2.
This module integrates that wave equation directly with a Crank-Nicolson
(Cayley) scheme -- unconditionally stable and exactly norm-preserving for a
Hermitian step Hamiltonian -- so the fluid loop can be validated against it.
The logarithmic pressure nonlinearity is evaluated lagged (from the current
step's amplitude), which keeps each step's Hamiltonian Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FluidState, PhysicalParams, SpatialGrid, init_coherent_state
from .diagnostics import Recorder, RunRecord
from .forces import moments

__all__ = ["WaveState", "cn_step", "wave_to_fluid", "fluid_to_wave", "run_reference"]

# densities below this fraction of the peak are treated as vacuum when
# extracting a velocity or evaluating ln|psi|
AMPLITUDE_FLOOR = 1e-14


@dataclass
class WaveState:
    """Complex wave amplitude on the grid at time t."""

    t: float
    psi: np.ndarray

    def norm2(self, grid: SpatialGrid) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * grid.dx)


def cn_step(wave: WaveState, grid: SpatialGrid, params: PhysicalParams, dt: float) -> WaveState:
    """Advance psi by one Crank-Nicolson step of
    i psi_t = -D psi_xx + [(phi + w)/(2D)] psi, Dirichlet ends."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = grid.n
    dx = grid.dx
    x = grid.positions
    psi = wave.psi

    potential = 0.5 * params.omega**2 * x**2
    if params.kp != 0.0:
        rho = np.abs(psi) ** 2
        floor = AMPLITUDE_FLOOR * max(float(np.max(rho)), 1e-300)
        potential = potential + params.kp * np.log(np.maximum(rho, floor))

    # H psi = -D (psi_{j+1} - 2 psi_j + psi_{j-1})/dx^2 + potential/(2D) psi
    off = -params.D / dx**2
    diag = -2.0 * off + potential / (2.0 * params.D)

    z = 0.5j * dt
    rhs = np.empty(n, dtype=complex)
    rhs[1:-1] = psi[1:-1] - z * (off * (psi[2:] + psi[:-2]) + diag[1:-1] * psi[1:-1])
    rhs[0] = 0.0
    rhs[-1] = 0.0

    # banded (I + z H) over interior points; psi = 0 pinned at the ends
    m = n - 2
    ab = np.zeros((3, m), dtype=complex)
    ab[0, 1:] = z * off
    ab[1, :] = 1.0 + z * diag[1:-1]
    ab[2, :-1] = z * off
    # scipy is imported here, on first use, so that the fluid loop and its
    # CLI commands never pay for loading it
    from scipy.linalg import solve_banded

    try:
        interior = solve_banded((1, 1), ab, rhs[1:-1])
    except np.linalg.LinAlgError as err:
        raise RuntimeError("Crank-Nicolson tridiagonal solve failed") from err

    new_psi = np.zeros(n, dtype=complex)
    new_psi[1:-1] = interior
    return WaveState(wave.t + dt, new_psi)


def wave_to_fluid(wave: WaveState, grid: SpatialGrid, params: PhysicalParams) -> FluidState:
    """Read the fluid fields out of psi: rho = |psi|^2 and
    V = 2 D Im(psi_x / psi) by central differences (V = 0 where the
    amplitude is below floor)."""
    return _fluid_from(wave, np.abs(wave.psi) ** 2, grid, params)


def _fluid_from(wave: WaveState, rho: np.ndarray, grid: SpatialGrid, params: PhysicalParams) -> FluidState:
    """``wave_to_fluid`` with rho = |psi|^2 already computed."""
    psi = wave.psi
    peak = float(np.max(rho))
    floor = AMPLITUDE_FLOOR * max(peak, 1e-300)
    ln_rho = np.log(np.maximum(rho, floor))

    V = np.zeros(grid.n)
    good = rho > floor
    dpsi = np.zeros(grid.n, dtype=complex)
    dpsi[1:-1] = (psi[2:] - psi[:-2]) / (2 * grid.dx)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(good, dpsi / np.where(good, psi, 1.0), 0.0)
    V[good] = 2.0 * params.D * np.imag(ratio[good])
    V[[0, -1]] = 0.0
    return FluidState(wave.t, ln_rho, V)


def fluid_to_wave(state: FluidState, grid: SpatialGrid, params: PhysicalParams) -> WaveState:
    """Build psi = sqrt(rho) exp(i theta) with theta(x) = (1/2D) int V dx
    (trapezoid cumulative sum, phase 0 at the left boundary)."""
    rho = np.exp(state.ln_rho)
    theta = np.concatenate(
        ([0.0], np.cumsum(0.5 * (state.V[1:] + state.V[:-1]) * grid.dx))
    ) / (2.0 * params.D)
    return WaveState(state.t, np.sqrt(rho) * np.exp(1j * theta))


def run_reference(
    params: PhysicalParams,
    grid: SpatialGrid,
    dt: float,
    steps: int,
    snapshot_every: int = 1,
) -> RunRecord:
    """Integrate the wave equation from the coherent packet and record the
    same diagnostics as the fluid loop (computed from the extracted
    density/velocity), so records from both solvers can be compared like
    for like.  Snapshots hold rho = |psi|^2 itself."""
    wave = fluid_to_wave(init_coherent_state(params, grid, 0.0), grid, params)
    recorder = Recorder(grid, params, snapshot_every)
    final_status = "ok"
    for step in range(steps + 1):
        if step > 0:
            try:
                wave = cn_step(wave, grid, params, dt)
            except RuntimeError:
                final_status = "diverged_nonfinite"
                break
            if not np.all(np.isfinite(wave.psi)):
                final_status = "diverged_nonfinite"
                break
        # one |psi|^2 per step: the fluid fields, the mass and the snapshot
        rho = np.abs(wave.psi) ** 2
        fluid = _fluid_from(wave, rho, grid, params)
        recorder.add(step, fluid, moments(fluid, grid), float(rho.sum() * grid.dx), rho=rho)
    return recorder.finish(final_status)
