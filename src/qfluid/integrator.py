"""Lax-Friedrichs FTCS time stepper and the measure/compute/apply feedback loop.

One protocol step of ``run`` does, in order:

  1. optionally perturb the density (multiplicative exp(alpha) noise),
  2. advance ln rho with the Lax continuity update,
  3. measure the just-updated density and estimate the quantum force from it,
  4. advance V with the Lax momentum update under the total force.

Interleaving the measurement between the two field updates makes the
center-of-mass map symplectic (drift with the old velocity, kick with the
force at the new density), which is what keeps the oscillation amplitude
bounded over many periods.  Applying a force measured *before* the density
update instead yields the forward-Euler map whose amplitude grows by
exp(omega^2 dt^2/2) per step and visibly falsifies the non-spreading packet
within a period at the default resolution.

``drift_kick_step`` performs steps 2-4 and only advances the fields;
``trajectory`` draws every density perturbation and puts it on the fluid
(initial, per-step) or hands it to the step (measurement), calls the step
once per step, decides how the run ends, and yields each surviving step
with its measurements; ``run`` records what it yields.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from functools import lru_cache

import numpy as np

from .core import FluidState, PhysicalParams, RunConfig, SpatialGrid, mass
from .diagnostics import RunRecord, center_energy_estimate, smoothness
from .forces import (
    DegenerateDensityError,
    Moments,
    NonFiniteDensityError,
    external_force,
    fd_quantum_force,
    gaussian_fit_force,
    moments,
    pressure_force,
)
from .oracle import OracleWave, init_coherent_state

__all__ = ["drift_kick_step", "build_force_field", "trajectory", "run"]

# The statuses of a step and of a run's end; other modules import these
# names rather than spell them.
STATUS_OK = "ok"
STATUS_CFL = "cfl_warning"
STATUS_NONFINITE = "diverged_nonfinite"
STATUS_DISPERSION = "diverged_dispersion"

# Run stops when the variance exceeds this multiple of its initial value or
# when a single step changes the total mass by more than this factor.  The
# scheme's slow neighbor-averaging mass drift (a documented property that
# shrinks under refinement) is not a divergence; a 10x jump within one dt is.
VAR_BLOWUP_FACTOR = 10.0
MASS_STEP_JUMP_FACTOR = 10.0

# ln rho is clamped from below at this fraction of the initial peak density
# (measured before any initial noise), so the Gaussian tails cannot sink
# towards -inf under the drift.
RHO_FLOOR = 1e-12

# The applied pressure force is faded out below this fraction of the peak
# density.  grad(ln rho) of a Gaussian grows without bound in the wings, so
# an ungated pressure term blows off the near-vacuum tails supersonically:
# the wing inflow then floods the grid within tens of steps.  External and
# quantum forces are never gated: their sum is spatially uniform for a
# coherent packet, so they transport the tails rigidly with the core and no
# shear layer forms; gating them would create exactly the kind of force
# transition the pressure gate exists to soften.  The fade is a logistic
# one e-fold of ln rho wide: the wider it is, the weaker the density ridge
# where actuated fluid pushes against unactuated fluid, which the stencil
# estimator re-reads with D^2 amplification.
PRESSURE_GATE_REL = 1e-6

# Absorbing strip: velocities in the outermost cells are damped each step
# (quadratic ramp, factor 1/(1+s), s -> 1 at the edge) so that whatever
# momentum the gated tail fluid still picks up cannot pile up against the
# open boundary.  See ``sponge_active`` for when it is on.
SPONGE_CELLS = 8

# Cells per side on which the loop replaces the stencil estimator's output
# by a linear extrapolation of the first valid values: the stencil itself
# carries no value on its outer 3 cells, and its 4th cell reads the
# boundary cell of ln rho, which the continuity update fills by
# extrapolation rather than by physics.
STENCIL_EDGE = 4


def _continuity_update(ln_rho: np.ndarray, V: np.ndarray, dt: float, dx: float) -> np.ndarray:
    """Lax update of ln rho:
    (avg of neighbors) - (dt/2dx) [ (V_{j+1}-V_{j-1}) + V_j (ln rho_{j+1}-ln rho_{j-1}) ].

    Boundary cells are filled by linear extrapolation.  A plain copy would
    put an O(grad ln rho) slope kink at the edge, which the D^2-amplified
    force stencils of the finite-difference estimator blow up into an O(100)
    force spike within two steps; the linearly extrapolated cell errs only
    at O(dx^2/sigma^2).  (Quadratic extrapolation would remove even that
    seed, but its boundary recursion amplifies cell noise by 3/2 per step,
    which wrecks the noisy-density runs instead.)

    The interior is built in place, in the returned array and one scratch
    array, by the formula's operations in its order, so the bits are those
    of the expression above: at large n a fresh temporary per operation
    costs more in page faults than in arithmetic."""
    new = np.empty_like(ln_rho)
    out = new[1:-1]
    tmp = np.empty_like(out)
    np.subtract(ln_rho[2:], ln_rho[:-2], out=out)
    np.multiply(V[1:-1], out, out=out)
    np.subtract(V[2:], V[:-2], out=tmp)
    tmp += out
    tmp *= dt / (2 * dx)
    np.add(ln_rho[2:], ln_rho[:-2], out=out)
    out *= 0.5
    out -= tmp
    new[0] = 2.0 * new[1] - new[2]
    new[-1] = 2.0 * new[-2] - new[-3]
    return new


def _velocity_update(V: np.ndarray, total_force: np.ndarray, dt: float, dx: float) -> np.ndarray:
    """Lax update of V:
    (avg of neighbors) + dt [ -V_j (V_{j+1}-V_{j-1})/(2dx) + F_j ].
    Boundary points copy their interior neighbor's updated value.  Built in
    place like ``_continuity_update``, to the same bits as the formula."""
    new = np.empty_like(V)
    out = new[1:-1]
    tmp = np.empty_like(out)
    np.subtract(V[2:], V[:-2], out=tmp)
    np.negative(V[1:-1], out=out)
    np.multiply(out, tmp, out=tmp)
    tmp /= 2 * dx
    tmp += total_force[1:-1]
    tmp *= dt
    np.add(V[2:], V[:-2], out=out)
    out *= 0.5
    out += tmp
    new[0] = new[1]
    new[-1] = new[-2]
    return new


def build_force_field(
    grid: SpatialGrid,
    params: PhysicalParams,
    config: RunConfig,
    measured: np.ndarray,
    ln_rho: np.ndarray,
    t: float,
) -> np.ndarray:
    """The total applied force at time ``t``: (external trap + quantum force
    by ``config.estimator``) + pressure, faded out below the density gate,
    when kp != 0.  The quantum term comes from the ``measured`` ln rho and
    pressure from the true fluid ``ln_rho``; the sum is built in the quantum
    estimate's own array, which each estimator returns fresh.  The gate
    1 + exp(min(ln_gate - ln_rho, 60)) is built in place in one scratch
    array and divides ``pressure_force``'s own array; as ln rho <= max, its
    argument is inf, NaN or >= 2 ln PRESSURE_GATE_REL."""
    ext = external_force(grid, params)
    if config.estimator == "gaussian_fit":
        quantum = gaussian_fit_force(measured, grid, params)
    elif config.estimator == "finite_difference":
        quantum = _extend_stencil_force(fd_quantum_force(measured, grid, params))
    elif config.estimator == "oracle_exact":
        quantum = OracleWave(params).force(grid.positions, t)
    else:  # none
        quantum = np.zeros(grid.n)
    total = np.add(ext, quantum, out=quantum)
    if params.kp != 0.0:
        ln_gate = float(np.maximum.reduce(ln_rho)) + math.log(PRESSURE_GATE_REL)
        gate = np.subtract(ln_gate, ln_rho)
        np.minimum(gate, 60.0, out=gate)
        np.exp(gate, out=gate)
        gate += 1.0
        pressure = pressure_force(ln_rho, grid, params)
        pressure /= gate
        total += pressure
    return total


def _extend_stencil_force(F: np.ndarray) -> np.ndarray:
    """Fill the stencil estimator's edge band by linear extrapolation of the
    first trustworthy values.  Leaving the band at zero (or any constant)
    shears the boundary fluid against the forced interior, and the
    D^2-amplified stencil re-reads that shear as a density ridge within a
    few steps; the packet's quantum force is linear in x, so linear
    extrapolation leaves no seed."""
    k = STENCIL_EDGE
    # F[k] + o (F[k+1] - F[k]) at the offset o of each band cell from the
    # first valid cell on its side, in Python floats: the IEEE operations
    # numpy would do, without building arrays for 8 values.  All four reads
    # come first, as the bands overlap on a 7-cell grid.
    first, second = F[k : k + 2].tolist()
    second_last, last = F[-k - 2 : -k].tolist()
    d_left, d_right = second - first, last - second_last
    for o in range(-k, 0):
        F[k + o] = first + o * d_left
    for o in range(1, k + 1):
        F[o - k - 1] = last + o * d_right
    return F


@lru_cache(maxsize=16)
def _damping(n: int) -> np.ndarray:
    """Per-step velocity factor 1/(1+s) of the absorbing strip: s -> 1 at the
    edge, ((SPONGE_CELLS - d)/SPONGE_CELLS)^2 d < SPONGE_CELLS cells from it."""
    d = np.minimum(np.arange(n), np.arange(n)[::-1])
    s = (np.maximum(SPONGE_CELLS - d, 0) / SPONGE_CELLS) ** 2
    damp = 1.0 / (1.0 + s)
    damp.flags.writeable = False
    return damp


def sponge_active(params: PhysicalParams, config: RunConfig) -> bool:
    """Whether the absorbing strip damps V: in pressure runs, whose gated
    tails shed momentum toward the boundary, except with the stencil
    estimator, which would re-read the strip's shear layer as a ridge."""
    return params.kp > 0.0 and config.estimator != "finite_difference"


def drift_kick_step(
    state: FluidState,
    grid: SpatialGrid,
    params: PhysicalParams,
    config: RunConfig,
    measurement_noise: np.ndarray | None = None,
    ln_floor: float = -math.inf,
) -> FluidState:
    """One protocol step: drift ln rho with the current V (clamped from below
    at ``ln_floor``), measure the drifted density plus ``measurement_noise``,
    kick V with the force estimated from it.  Returns the new state, possibly
    non-finite, without touching ``state``.  The fit estimator raises
    ``NonFiniteDensityError`` for a non-finite measured density and
    ``DegenerateDensityError`` for a delta-like one."""
    dt, dx = config.dt, grid.dx
    new_lnr = _continuity_update(state.ln_rho, state.V, dt, dx)
    np.maximum(new_lnr, ln_floor, out=new_lnr)
    t_new = state.t + dt
    measured_lnr = new_lnr if measurement_noise is None else new_lnr + measurement_noise

    # The kick spans [t + dt/2, t + 3dt/2] in staggered-velocity time, so its
    # center is the post-drift node time: the closed-form force is evaluated
    # there, as the measured estimators read the post-drift density.
    total_force = build_force_field(grid, params, config, measured_lnr, new_lnr, t_new)
    new_V = _velocity_update(state.V, total_force, dt, dx)
    if sponge_active(params, config):
        new_V *= _damping(grid.n)
    return FluidState(t_new, new_lnr, new_V)


def trajectory(
    config: RunConfig,
    params: PhysicalParams,
    grid: SpatialGrid,
    state: FluidState | None = None,
) -> Generator[tuple[int, FluidState, Moments, float, float, str], None, str]:
    """Execute the feedback loop one step at a time.

    Yields ``(step, state, moments, mass, max_abs_V, status)`` for step 0 and
    for every step that survives, and returns the run's final status ("ok" or
    a divergence label).  max |V|, taken once per state, is the record's column
    and the next step's CFL flag.  Starts from the exact coherent packet unless
    a state is supplied.  A step ends the run unyielded, never raising: as
    "diverged_nonfinite" on a non-finite max |V| or a ``NonFiniteDensityError``
    of any ``moments`` call; as "diverged_dispersion" on a delta-like density,
    a variance blow-up or a mass jump.  At its first ``next``, not at the call,
    it raises ``DegenerateDensityError`` for an initial state it cannot measure
    (a packet narrower than a tenth of a cell, say) and ValueError for a state
    whose fields do not fit the grid or whose mass is not finite and positive.
    """
    if state is None:
        state = init_coherent_state(params, grid, 0.0)
    elif not len(state.ln_rho) == len(state.V) == grid.n:
        raise ValueError(f"start state has {len(state.ln_rho)} ln_rho and {len(state.V)} V values, "
                         f"but the grid has {grid.n} cells")
    # a noiseless run builds no generator, so numpy.random need not load
    rng = np.random.default_rng(config.seed) if config.noise != "none" else None
    ln_floor = float(state.ln_rho.max()) + math.log(RHO_FLOOR)

    def draw_noise() -> np.ndarray:
        """ln rho perturbation alpha ~ U[0, noise_amplitude] at every cell,
        i.e. rho multiplied by exp(alpha)."""
        return rng.uniform(0.0, config.noise_amplitude, size=grid.n)

    if config.noise == "initial":
        state = FluidState(state.t, state.ln_rho + draw_noise(), state.V)

    m = moments(state.ln_rho, grid)
    # exp(ln rho) leaves the float range some 700 e-folds from a unit
    # density, where the moments, taken relative to the peak, still measure;
    # the mass-jump check cannot divide by the inf or 0 mass that results
    with np.errstate(over="ignore"):
        prev_mass = mass(state.ln_rho, grid)
    if not 0.0 < prev_mass < math.inf:
        raise ValueError(f"start state's mass must be finite and positive, got {prev_mass}")
    yield 0, state, m, prev_mass, float(np.maximum.reduce(np.abs(state.V))), STATUS_OK
    var0 = m.var

    # Leapfrog bootstrap: the loop below drifts the density with the current
    # velocity and then kicks the velocity with the force at the updated
    # density, so V effectively lives on half-step times.  Offsetting the
    # initial velocity by half a kick aligns the recorded density trajectory
    # with node times; without it the whole oscillation lags by dt/2, which
    # at the default resolution already costs a*omega*dt/2 ~ 5% of the
    # amplitude in apparent center error.  The yielded step-0 state is left
    # as it was.
    boot = build_force_field(grid, params, config, state.ln_rho, state.ln_rho, state.t)
    state = FluidState(state.t, state.ln_rho, state.V + 0.5 * config.dt * boot)
    v_max = float(np.maximum.reduce(np.abs(state.V)))

    for step in range(1, config.steps + 1):
        if config.noise == "per_step":
            state = FluidState(state.t, state.ln_rho + draw_noise(), state.V)
        noise = draw_noise() if config.noise == "measurement" else None
        # the CFL flag reads the pre-step V
        status = STATUS_CFL if v_max * config.dt / grid.dx > 1.0 else STATUS_OK
        # a step whose force or moments cannot be measured, that goes
        # non-finite, blows up the variance or jumps the mass ends the run
        try:
            new_state = drift_kick_step(state, grid, params, config, noise, ln_floor)
            v_max = float(np.maximum.reduce(np.abs(new_state.V)))
            if not math.isfinite(v_max):
                return STATUS_NONFINITE
            m = moments(new_state.ln_rho, grid)
        except NonFiniteDensityError:
            return STATUS_NONFINITE
        except DegenerateDensityError:
            return STATUS_DISPERSION
        new_mass = mass(new_state.ln_rho, grid)
        ratio = new_mass / prev_mass
        if m.var > VAR_BLOWUP_FACTOR * var0 or not (
            1.0 / MASS_STEP_JUMP_FACTOR < ratio < MASS_STEP_JUMP_FACTOR
        ):
            return STATUS_DISPERSION
        state, prev_mass = new_state, new_mass
        yield step, state, m, new_mass, v_max, status
    return STATUS_OK


def run(
    config: RunConfig,
    params: PhysicalParams,
    grid: SpatialGrid,
    state: FluidState | None = None,
) -> RunRecord:
    """Execute the feedback loop and collect diagnostics: the RunRecord of
    every step ``trajectory`` yields (partial, with its divergence label, if
    the run stops early).  Each step is one row (t, mean, var, mass, max |V|,
    center energy, smoothness) and its stepper status; every
    ``config.snapshot_every`` steps (0 = never) a (rho, V) snapshot is kept
    too, as exp(ln rho) and a copy of V, since the step-0 state may hold the
    caller's own arrays.  Raises ``DegenerateDensityError`` for an initial
    state it cannot measure and ValueError for one ``trajectory`` refuses."""
    rows, status, snapshots = [], [], {}
    steps = trajectory(config, params, grid, state)
    while True:
        try:
            step, state, m, step_mass, v_max, step_status = next(steps)
        except StopIteration as stop:
            series = (np.array(col) for col in zip(*rows))
            return RunRecord(params, grid, *series, status, snapshots, stop.value)
        rows.append((
            state.t, m.mean, m.var, step_mass, v_max,
            center_energy_estimate(state, grid, params), smoothness(state.ln_rho, grid),
        ))
        status.append(step_status)
        if config.snapshot_every > 0 and step % config.snapshot_every == 0:
            snapshots[step] = (np.exp(state.ln_rho), state.V.copy())
