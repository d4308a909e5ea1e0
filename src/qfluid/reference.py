"""Independent integrator of the generalized Schrodinger equation.

The hydrodynamic feedback system (Euler + continuity + quantum force) is
claimed to be equivalent to

    D^2 psi_xx + i D psi_t - [(phi + w)/2] psi = 0,
    phi = omega^2 x^2 / 2,   w = kp ln|psi|^2   (isentropic pressure term),

via psi = sqrt(rho) exp(i S / 2D), V = 2 D grad(theta), rho = |psi|^2.
This module integrates that wave equation directly with a Crank-Nicolson
(Cayley) scheme -- unconditionally stable and exactly norm-preserving for a
Hermitian step Hamiltonian -- and ``cross_check`` steps it alongside the
fluid loop to validate the loop against it.  The logarithmic pressure
nonlinearity is evaluated lagged (from the current step's amplitude), which
keeps each step's Hamiltonian Hermitian.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .core import FluidState, PhysicalParams, RunConfig, SpatialGrid
from .diagnostics import density_distance
from .integrator import trajectory

__all__ = [
    "CNOperator", "cn_operator", "cn_step", "wave_to_fluid", "fluid_to_wave", "wave_trajectory",
    "cross_check",
]

# densities below this fraction of the peak are treated as vacuum when
# extracting a velocity or evaluating ln|psi|
AMPLITUDE_FLOOR = 1e-14


@dataclass(eq=False)
class CNOperator:
    """The Crank-Nicolson system (I + zH) psi_new = (I - zH) psi of one run,
    z = i dt/2, over the interior cells (psi = 0 is pinned at the ends), with

        H psi_j = off (psi_{j+1} + psi_{j-1}) + diag_j psi_j,
        off = -D/dx^2,   diag = -2 off + (phi + w)/(2D).

    Only w = kp ln|psi|^2 changes between steps.  Without it (kp = 0) the
    system is constant and `factors` holds zgttrf's LU factors of I + zH,
    computed once; with it `factors` is None and each step refactors."""

    params: PhysicalParams
    z: complex
    off: float
    potential: np.ndarray  # phi = omega^2 x^2 / 2
    diag: np.ndarray  # the diagonal of H for phi alone
    band: np.ndarray  # z off: the sub- and super-diagonal of I + zH
    factors: tuple | None


def cn_operator(config: RunConfig, params: PhysicalParams, grid: SpatialGrid) -> CNOperator:
    """Build the Crank-Nicolson operator of
    i psi_t = -D psi_xx + [(phi + w)/(2D)] psi, Dirichlet ends, for steps of
    ``config.dt``; factor it now when it is constant (kp = 0)."""
    potential = 0.5 * params.omega**2 * grid.positions**2
    off = -params.D / grid.dx**2
    diag = -2.0 * off + potential / (2.0 * params.D)
    z = 0.5j * config.dt
    band = np.full(grid.n - 3, z * off)
    factors = None if params.kp != 0.0 else _factor(band, 1.0 + z * diag[1:-1])
    return CNOperator(params, z, off, potential, diag, band, factors)


def _factor(band: np.ndarray, d: np.ndarray) -> tuple:
    """zgttrf's LU factors of the tridiagonal matrix (band, d, band)."""
    # scipy is imported here, when a reference run starts, so that the fluid
    # loop and its CLI commands never pay for loading it
    from scipy.linalg.lapack import zgttrf

    *factors, info = zgttrf(band, d, band)
    if info != 0:
        raise RuntimeError("Crank-Nicolson tridiagonal solve failed")
    return tuple(factors)


def _vacuum_floor(rho: np.ndarray) -> float:
    return AMPLITUDE_FLOOR * max(float(np.max(rho)), 1e-300)


def cn_step(psi: np.ndarray, op: CNOperator, rho: np.ndarray) -> np.ndarray:
    """The new psi after one Crank-Nicolson step of `op` from ``psi``, given
    its density rho = |psi|^2; with pressure, w is lagged: evaluated from rho."""
    from scipy.linalg.lapack import zgttrs

    diag, factors = op.diag, op.factors
    if factors is None:
        potential = op.potential + op.params.kp * np.log(np.maximum(rho, _vacuum_floor(rho)))
        diag = -2.0 * op.off + potential / (2.0 * op.params.D)
        factors = _factor(op.band, 1.0 + op.z * diag[1:-1])

    rhs = psi[1:-1] - op.z * (op.off * (psi[2:] + psi[:-2]) + diag[1:-1] * psi[1:-1])
    interior, info = zgttrs(*factors, rhs)
    if info != 0:
        raise RuntimeError("Crank-Nicolson tridiagonal solve failed")
    new_psi = np.zeros(psi.size, dtype=complex)
    new_psi[1:-1] = interior
    return new_psi


def wave_to_fluid(
    psi: np.ndarray, rho: np.ndarray, grid: SpatialGrid, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray]:
    """The fluid fields ``(ln_rho, V)`` read out of psi, given its density
    rho = |psi|^2, with V = 2 D Im(psi_x / psi) = 2 D Im(conj(psi) psi_x) / rho
    by central differences,

        V_j = (D/dx) (Re psi_j Im dpsi_j - Im psi_j Re dpsi_j) / rho_j,
        dpsi_j = psi_{j+1} - psi_{j-1},

    with V = 0 at both ends and where the density is below floor."""
    floor = _vacuum_floor(rho)
    ln_rho = np.log(np.maximum(rho, floor))
    dpsi = psi[2:] - psi[:-2]
    flux = (params.D / grid.dx) * (psi[1:-1].real * dpsi.imag - psi[1:-1].imag * dpsi.real)
    V = np.zeros(grid.n)
    np.divide(flux, rho[1:-1], out=V[1:-1], where=rho[1:-1] > floor)
    return ln_rho, V


def fluid_to_wave(state: FluidState, grid: SpatialGrid, params: PhysicalParams) -> np.ndarray:
    """Build psi = sqrt(rho) exp(i theta) with theta(x) = (1/2D) int V dx
    (trapezoid cumulative sum, phase 0 at the left boundary)."""
    rho = np.exp(state.ln_rho)
    theta = np.concatenate(
        ([0.0], np.cumsum(0.5 * (state.V[1:] + state.V[:-1]) * grid.dx))
    ) / (2.0 * params.D)
    return np.sqrt(rho) * np.exp(1j * theta)


def wave_trajectory(
    config: RunConfig, params: PhysicalParams, grid: SpatialGrid, psi: np.ndarray
) -> Generator[tuple[int, np.ndarray, np.ndarray], None, str]:
    """Integrate the wave equation from ``psi`` for ``config.steps`` steps
    of ``config.dt``, one step at a time.  Yields ``(step, psi, rho =
    |psi|^2)`` for step 0 (the given ``psi`` itself) and every step that
    stays finite, and returns "ok" or "diverged_nonfinite"."""
    op = cn_operator(config, params, grid)
    # one |psi|^2 per step: the caller's fields, mass and snapshot, and the
    # next step's lagged pressure
    rho = np.abs(psi) ** 2
    yield 0, psi, rho
    for step in range(1, config.steps + 1):
        try:
            psi = cn_step(psi, op, rho)
        except RuntimeError:
            return "diverged_nonfinite"
        if not np.all(np.isfinite(psi)):
            return "diverged_nonfinite"
        rho = np.abs(psi) ** 2
        yield step, psi, rho
    return "ok"


def cross_check(
    config: RunConfig, params: PhysicalParams, grid: SpatialGrid
) -> tuple[list[tuple[int, float, float]], str]:
    """Step the feedback loop and the wave equation in lockstep, the wave
    from the fluid's step-0 state (initial noise included), until the first
    solver ends.  Returns one ``(step, t, density_distance)`` row for each
    step both solvers reached, and the status of the solver that ended
    first: the fluid's, or the reference's prefixed "reference_".  Only the
    rows are kept, so memory stays flat in the number of steps.  Raises
    ValueError for per-step noise, which only the fluid would carry."""
    if config.noise == "per_step":
        raise ValueError("cannot cross-check noise = per_step: the wave equation carries no noise")
    fluid = trajectory(config, params, grid)
    _, state, *_ = next(fluid)
    waves = wave_trajectory(config, params, grid, fluid_to_wave(state, grid, params))
    rows = []
    while True:
        try:
            step, _, rho = next(waves)
        except StopIteration as stop:
            return rows, "reference_" + stop.value
        rows.append((step, state.t, density_distance(np.exp(state.ln_rho), rho, grid.dx)))
        try:
            _, state, *_ = next(fluid)
        except StopIteration as stop:
            return rows, stop.value
