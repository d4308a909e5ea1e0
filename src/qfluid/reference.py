"""Independent integrator of the generalized Schrodinger equation.

The hydrodynamic feedback system (Euler + continuity + quantum force) is
claimed to be equivalent to

    D^2 psi_xx + i D psi_t - [(phi + w)/2] psi = 0,
    phi = omega^2 x^2 / 2,   w = kp ln|psi|^2   (isentropic pressure term),

via psi = sqrt(rho) exp(i S / 2D), V = 2 D grad(theta), rho = |psi|^2.
This module integrates that wave equation directly with a Crank-Nicolson
scheme -- unconditionally stable and exactly norm-preserving for a
Hermitian step Hamiltonian -- and ``cross_check`` steps it alongside the
fluid loop to validate the loop against it.  Each step is taken in Cayley
form, psi_new = 2 (I + zH)^-1 psi - psi, so it costs one tridiagonal solve,
by cyclic reduction in numpy, and no product with I - zH.  The logarithmic
pressure nonlinearity is Strang-split (G. Strang, SIAM J. Numer. Anal. 5,
506, 1968; W. Bao, D. Jaksch and P. A. Markowich, J. Comput. Phys. 187,
318, 2003): the flow i psi_t = (w/2D) psi keeps |psi|, so it is the exact
phase psi exp(-i t w/2D), and a step is a half step of that phase, one
Crank-Nicolson step without pressure and another half phase.  Both
sub-steps are unitary, so the step stays norm-preserving, and it is second
order in time at every kp.  A run ends as non-finite when a step's |psi|^2,
which each step computes anyway, is.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from .core import FluidState, PhysicalParams, RunConfig, SpatialGrid
from .diagnostics import density_distance
from .integrator import STATUS_NONFINITE, STATUS_OK, trajectory

__all__ = [
    "CNOperator", "cn_operator", "cn_step", "fluid_to_wave", "wave_trajectory", "cross_check",
]

# the cyclic reduction stops at this many rows and inverts what is left; the
# solve's rounding, and so every byte of a compare.csv, depends on the value
_BASE_ROWS = 32


@dataclass(frozen=True, eq=False)
class CNOperator:
    """The Crank-Nicolson system (I + zH) psi_new = (I - zH) psi of one run
    without pressure, z = i dt/2, over the interior cells (psi = 0 is pinned
    at the ends), with

        H psi_j = off (psi_{j+1} + psi_{j-1}) + diag_j psi_j,
        off = -D/dx^2,   diag = -2 off + phi/(2D),

    `plan` the cyclic reduction of I + zH, built once, and edge = z off the
    end cells' weight in ``cn_step``'s doubled right-hand side.  The pressure
    term w = kp ln|psi|^2 enters only as the phase exp(-i half_phase ln|psi|^2)
    taken before and after each solve, half_phase = (dt/2) kp/(2D)."""

    edge: complex
    half_phase: float
    plan: tuple


def cn_operator(config: RunConfig, params: PhysicalParams, grid: SpatialGrid) -> CNOperator:
    """Build the Crank-Nicolson operator of
    i psi_t = -D psi_xx + [(phi + w)/(2D)] psi, Dirichlet ends, for steps of
    ``config.dt``, and reduce its pressure-free system once."""
    # a non-finite operator ends the run through the first step's |psi|^2
    with np.errstate(all="ignore"):
        phi = 0.5 * params.omega**2 * grid.positions[1:-1] ** 2
        z, off = 0.5j * config.dt, -params.D / grid.dx**2
        d = 1.0 + z * (-2.0 * off + phi / (2.0 * params.D))
        half_phase = 0.5 * config.dt * params.kp / (2.0 * params.D)
        return CNOperator(z * off, half_phase, _reduce(z * off, d))


def _reduce(e: complex, d: np.ndarray) -> tuple:
    """Odd-even cyclic reduction (Hockney, J. ACM 12, 95, 1965) of the
    symmetric tridiagonal matrix A with diagonal ``d`` and every
    off-diagonal entry ``e``, for `_solve`.

    Each level eliminates the even rows 0, 2, 4, ... and leaves the odd rows
    as a symmetric tridiagonal system of half the size, until at most
    `_BASE_ROWS` rows remain, whose dense inverse is kept.  A level is
    ``(1/b_even, p, q)``: with b the level's diagonal and e its
    off-diagonal, odd row 2k+1 is eliminated against its neighbours by
    p_k = e_2k / b_2k and q_k = e_2k+1 / b_2k+2, and by symmetry the same
    p and q weight the odd unknowns when the even rows are substituted back.

    No pivoting is needed.  A = I + zH with z = i dt/2 and H real symmetric
    has Hermitian part I, positive definite.  Eliminating a block A_11 leaves
    the Schur complement S, and y* S y = x* A x for x = (-A_11^-1 A_12 y, y),
    so S has a positive definite Hermitian part too.  Every pivot, in any
    elimination order, is a diagonal entry of such a matrix and has a
    positive real part (Golub & Van Loan, Matrix Computations, 4.2)."""
    levels = []
    e = np.full(d.size - 1, e)
    while d.size > _BASE_ROWS:
        odd = d.size // 2
        inv = 1.0 / d[0::2]
        p = e[0::2] * inv[:odd]
        q = e[1::2] * inv[1:]
        d_next = d[1::2] - p * e[0::2]
        d_next[: q.size] -= q * e[1::2]
        e = -q[: odd - 1] * e[2::2]
        levels.append((inv, p, q))
        d = d_next
    try:
        base = np.linalg.inv(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    except np.linalg.LinAlgError:  # only a non-finite matrix is singular
        base = np.full((d.size, d.size), complex(np.nan))
    return levels, base


def _solve(plan: tuple, r: np.ndarray) -> None:
    """Overwrite ``r`` with A^-1 r, for the A that `_reduce` built ``plan`` of."""
    levels, base = plan
    work = np.empty(r.size // 2, dtype=complex)
    rhs = [r]  # each level's right-hand side, a view of r
    for _, p, q in levels:  # carry the even rows into the odd rows' right-hand sides
        even, odd = r[0::2], r[1::2]
        odd -= np.multiply(p, even[: p.size], out=work[: p.size])
        odd[: q.size] -= np.multiply(q, even[1:], out=work[: q.size])
        r = odd
        rhs.append(r)
    r[:] = base @ r
    for (inv, p, q), r in zip(reversed(levels), reversed(rhs[:-1])):  # substitute back
        even, odd = r[0::2], r[1::2]
        even *= inv
        even[: p.size] -= np.multiply(p, odd, out=work[: p.size])
        even[1:] -= np.multiply(q, odd[: q.size], out=work[: q.size])


def cn_step(psi: np.ndarray, op: CNOperator, rho: np.ndarray) -> np.ndarray:
    """The new psi after one step of `op` from ``psi``, given its density
    rho = |psi|^2: with pressure, a half phase from rho, the Crank-Nicolson
    step and a half phase from the new |psi|^2.

    The Crank-Nicolson step, in Cayley form (I + zH)^-1 (I - zH) =
    2 (I + zH)^-1 - I, is one solve (I + zH) chi = 2 psi_int - edge (psi_0 e_1
    + psi_{n-1} e_m), the second term carrying the end cells' coupling into
    the first and last interior cells, then psi_int_new = chi - psi_int.
    Doubling is exact and the solve linear, so chi is twice the solve of half
    that right-hand side to the bit unless an intermediate is subnormal."""
    new_psi = np.empty(psi.size, dtype=complex)
    new_psi[0] = new_psi[-1] = 0.0
    b = new_psi[1:-1]  # the right-hand side, overwritten by the solve
    # a non-finite operator or wave ends the run through the caller's |psi|^2
    with np.errstate(all="ignore"):
        if op.half_phase:
            psi = psi * _pressure_phase(rho, op.half_phase)
        np.multiply(psi[1:-1], 2.0, out=b)
        b[0] -= op.edge * psi[0]
        b[-1] -= op.edge * psi[-1]
        _solve(op.plan, b)
        b -= psi[1:-1]
        if op.half_phase:
            new_psi *= _pressure_phase(_density(new_psi), op.half_phase)
    return new_psi


def _pressure_phase(rho: np.ndarray, half_phase: float) -> np.ndarray:
    """exp(-i half_phase ln rho): half a step of i psi_t = (w/2D) psi,
    w = kp ln|psi|^2, which keeps |psi|.  Where rho = 0 the phase is 1, so
    psi = 0 (the pinned ends) stays 0 instead of 0 e^{i inf} = NaN."""
    ln_rho = np.log(rho, out=np.zeros_like(rho), where=rho > 0.0)
    return np.exp(-1j * half_phase * ln_rho)


def fluid_to_wave(state: FluidState, grid: SpatialGrid, params: PhysicalParams) -> np.ndarray:
    """Build psi = sqrt(rho) exp(i theta) with theta(x) = (1/2D) int V dx
    (trapezoid cumulative sum, phase 0 at the left boundary)."""
    rho = np.exp(state.ln_rho)
    theta = np.concatenate(
        ([0.0], np.cumsum(0.5 * (state.V[1:] + state.V[:-1]) * grid.dx))
    ) / (2.0 * params.D)
    return np.sqrt(rho) * np.exp(1j * theta)


def _density(psi: np.ndarray) -> np.ndarray:
    """|psi|^2, squared in the array np.abs returns."""
    rho = np.abs(psi)
    return np.square(rho, out=rho)


def wave_trajectory(
    config: RunConfig, params: PhysicalParams, grid: SpatialGrid, psi: np.ndarray
) -> Generator[tuple[int, np.ndarray, np.ndarray], None, str]:
    """Integrate the wave equation from ``psi`` for ``config.steps`` steps
    of ``config.dt``, one step at a time.  Yields ``(step, psi, rho =
    |psi|^2)`` for step 0 (the given ``psi`` itself) and every step that
    stays finite, and returns STATUS_OK or STATUS_NONFINITE; a ``psi`` not
    of the grid's length raises ValueError before step 0."""
    if psi.size != grid.n:
        raise ValueError(f"psi has {psi.size} values, but the grid has {grid.n} cells")
    op = cn_operator(config, params, grid)
    # one |psi|^2 per step here: the caller's density and the next step's
    # first pressure half phase
    rho = _density(psi)
    yield 0, psi, rho
    for step in range(1, config.steps + 1):
        psi = cn_step(psi, op, rho)
        rho = _density(psi)
        # |psi|^2 is non-finite wherever psi is, and its maximum wherever
        # any cell is: np.maximum propagates NaN
        if not math.isfinite(np.maximum.reduce(rho)):
            return STATUS_NONFINITE
        yield step, psi, rho
    return STATUS_OK


def cross_check(
    config: RunConfig, params: PhysicalParams, grid: SpatialGrid
) -> tuple[list[tuple[int, float, float]], str]:
    """Step the feedback loop and the wave equation in lockstep, the wave
    from the fluid's step-0 state (initial noise included), until the first
    solver ends.  Returns one ``(step, t, density_distance)`` row for each
    step both solvers reached, and the status of the solver that ended
    first: the fluid's, or the reference's prefixed "reference_".  Only the
    rows are kept, so memory stays flat in the number of steps.  Raises
    ValueError for per-step noise, which only the fluid would carry.  It is
    qfluid's one cross-check path, the one ``qfluid compare`` runs."""
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
        rows.append((step, state.t, density_distance(np.exp(state.ln_rho), rho)))
        try:
            _, state, *_ = next(fluid)
        except StopIteration as stop:
            return rows, stop.value
