"""Drift-kick stepper and the feedback loop (`trajectory`, `run`): its noise and record."""

import math
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import qfluid as qf
from qfluid import integrator
from qfluid.core import FluidState
from qfluid.integrator import sponge_active
from qfluid.presets import default_grid, default_params


def oracle_setup(dt, a=0.0, omega=0.1, steps=64):
    """(config, params, grid) of a 21-point grid with the closed-form force.
    With a = 0 it cancels the trap exactly; with a > 0 the net force is the
    uniform -omega^2 a cos(omega t) at the post-drift time."""
    config = qf.RunConfig(dt=dt, steps=steps, estimator="oracle_exact")
    return config, qf.PhysicalParams(D=1.0, omega=omega, a=a), qf.make_grid(-10.0, 1.0, 21)


def step(state, dt, a=0.0, omega=0.1):
    """One drift-kick step on the grid of ``oracle_setup``."""
    config, params, grid = oracle_setup(dt, a, omega)
    return qf.drift_kick_step(state, grid, params, config)


def test_lax_step_uniform_state_is_stationary():
    state = FluidState(0.0, np.full(21, -1.3), np.zeros(21))
    new = step(state, 0.5)
    assert new.t == 0.5
    assert np.allclose(new.ln_rho, -1.3)
    assert np.allclose(new.V, 0.0)
    assert state.t == 0.0 and np.array_equal(state.ln_rho, np.full(21, -1.3))


def test_lax_step_uniform_force_kicks_velocity():
    state = FluidState(0.0, np.full(21, 0.7), np.zeros(21))
    a, omega, dt = 2.0, 0.3, 2.0
    f = -omega**2 * a * math.cos(omega * dt)
    new = step(state, dt, a=a, omega=omega)
    assert np.allclose(new.V, 2.0 * f)
    assert np.allclose(new.ln_rho, 0.7)


def test_lax_step_pure_advection():
    # uniform V, linear ln rho: interior decreases by v0 * s * dt
    x = qf.make_grid(-10.0, 1.0, 21).positions
    v0, s, dt = 0.4, 0.11, 0.5
    state = FluidState(0.0, s * x, np.full(21, v0))
    new = step(state, dt)
    assert np.allclose(new.ln_rho[1:-1], s * x[1:-1] - v0 * s * dt, atol=1e-14)
    assert np.allclose(new.V, v0)


def test_lax_step_flags_cfl():
    # the loop flags a step whose pre-step V exceeds dx/dt, and runs on
    state = FluidState(0.0, np.zeros(21), np.full(21, 1.5))
    rec = qf.run(*oracle_setup(1.0, steps=3), state=state)
    assert rec.status == ["ok", "cfl_warning", "cfl_warning", "cfl_warning"]
    assert (rec.final_status, rec.steps_survived) == ("ok", 3)


def test_lax_step_flags_nonfinite():
    # NaN in V ends the run at its first step, leaving step 0 recorded
    state = FluidState(0.0, np.zeros(21), np.zeros(21))
    state.V[5] = np.nan
    rec = qf.run(*oracle_setup(1.0, steps=3), state=state)
    assert (rec.final_status, rec.steps_survived, rec.status) == ("diverged_nonfinite", 0, ["ok"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("noise", ["none", "measurement"])
@pytest.mark.parametrize("estimator", qf.core.ESTIMATORS)
def test_a_density_that_goes_nonfinite_ends_the_run_alike_under_every_estimator(estimator, noise):
    # at dt = 1e200 the first drift overflows ln rho: the fit's own moments
    # and the record's refuse it by one rule, so every loop names the cause
    config = qf.RunConfig(dt=1e200, steps=5, estimator=estimator, noise=noise)
    rec = qf.run(config, default_params(), default_grid())
    assert (rec.final_status, rec.steps_survived) == ("diverged_nonfinite", 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_density_that_alone_overflows_ends_the_run_as_nonfinite():
    # a uniform V = -1e307 against a ln rho slope of 0.1 per cell drifts ln
    # rho to +inf in one step, while V, which no force reads ln rho for,
    # stays finite: the record's own moments refuse the density
    state = FluidState(0.0, 0.1 * np.arange(21.0), np.full(21, -1e307))
    new = step(state, 1000.0)
    assert not np.isfinite(new.ln_rho).all() and np.isfinite(new.V).all()
    rec = qf.run(*oracle_setup(1000.0, steps=3), state=state)
    assert (rec.final_status, rec.steps_survived) == ("diverged_nonfinite", 0)


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_a_velocity_that_alone_overflows_ends_the_run_at_that_step():
    # V jumps from 0 to 1e160 at cell 15, off the packet's center: the drift
    # moves ln rho only by finite amounts, but the advection term V dV/dx
    # overflows to -inf there
    V = np.where(np.arange(21) < 15, 0.0, 1e160)
    state = FluidState(0.0, np.zeros(21), V)
    new = step(state, 1.0)
    assert np.isfinite(new.ln_rho).all() and not np.isfinite(new.V).all()
    rec = qf.run(*oracle_setup(1.0, steps=3), state=state)
    assert (rec.final_status, rec.steps_survived) == ("diverged_nonfinite", 0)
    assert rec.max_abs_V.tolist() == [1e160]


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_a_velocity_whose_square_overflows_at_the_mean_records_an_infinite_center_energy():
    # V = 1e160 on cells 10-20 puts it at the uniform packet's mean x = 0,
    # where V^2/2 overflows: the row reads inf, and the step ends the run
    V = np.where(np.arange(21) < 10, 0.0, 1e160)
    rec = qf.run(*oracle_setup(1.0, steps=3), state=FluidState(0.0, np.zeros(21), V))
    assert rec.center_energy.tolist() == [math.inf]
    assert (rec.final_status, rec.steps_survived) == ("diverged_nonfinite", 0)


@pytest.mark.parametrize("dt_scale", [1.0, 1.5])
def test_cfl_flag_reads_the_recorded_max_abs_V_of_the_step_before(dt_scale):
    # from step 2 on the flag reads the V of the recorded step before
    # (step 1's reads the bootstrapped V); at 1.5 times their dt, fig1-fig4,
    # fig6 and fig7 raise it
    flagged = 0
    for name in qf.preset_names():
        params, config, grid = qf.preset(name)
        config = replace(config, dt=config.dt * dt_scale)
        rec = qf.run(config, params, grid)
        over = rec.max_abs_V[1:-1] * config.dt / grid.dx > 1.0
        assert [s == "cfl_warning" for s in rec.status[2:]] == over.tolist()
        flagged += int(over.sum())
    assert (flagged > 0) == (dt_scale > 1.0)


def test_drift_kick_step_returns_a_nonfinite_state_without_raising():
    # deciding how a run ends is the loop's job, not the step's
    state = FluidState(0.0, np.zeros(21), np.zeros(21))
    state.V[5] = np.nan
    new = step(state, 1.0)
    assert np.isnan(new.ln_rho[4:7]).all() and np.isnan(new.V[4:7]).all()
    assert np.isfinite(new.ln_rho[:4]).all() and np.isfinite(new.V[:4]).all()


@pytest.mark.parametrize("name", ["fig1", "fig4", "fig5", "fig6", "fig7"])
def test_run_is_mirror_symmetric(name):
    # x -> -x on a grid symmetric about 0 maps the loop onto itself: the
    # mirrored packet's center is the negated center, its variance and mass
    # the same.  Left out: the noisy fig2 and fig3, and oracle_exact, whose
    # force is centred on +a cos(omega t).
    params, config, _ = qf.preset(name)
    grid = qf.make_grid(-96.0, 1.0, 193)
    assert grid.position(96) == 0.0
    state = qf.init_coherent_state(params, grid, 0.0)
    mirror = FluidState(state.t, state.ln_rho[::-1].copy(), -state.V[::-1])
    r1 = qf.run(config, params, grid, state=state)
    r2 = qf.run(config, params, grid, state=mirror)
    assert r1.steps_survived == r2.steps_survived == config.steps
    assert r1.final_status == r2.final_status == "ok"
    assert np.max(np.abs(r1.mean + r2.mean)) <= 1e-13
    assert np.max(np.abs(r1.var / r2.var - 1.0)) <= 1e-14
    assert np.max(np.abs(r1.mass / r2.mass - 1.0)) <= 1e-14


def record_arrays(rec):
    return (rec.t, rec.mean, rec.var, rec.mass, rec.max_abs_V, rec.center_energy,
            rec.smoothness_series)


def test_run_initial_noise_is_one_uniform_draw():
    # the initial perturbation multiplies rho by exp(alpha), alpha drawn as
    # the first U[0, amplitude] vector of the run's seeded generator
    params, grid = default_params(), default_grid()
    amp, seed = 0.7, 13
    clean = qf.run(qf.RunConfig(steps=1, snapshot_every=1), params, grid)
    noisy = qf.run(
        qf.RunConfig(steps=1, snapshot_every=1, noise="initial", noise_amplitude=amp, seed=seed),
        params, grid,
    )
    alpha = np.log(noisy.snapshots[0][0] / clean.snapshots[0][0])
    expected = np.random.default_rng(seed).uniform(0.0, amp, grid.n)
    assert np.allclose(alpha, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("noise", ["initial", "per_step"])
def test_run_with_zero_noise_amplitude_matches_clean_run(noise):
    params, grid = default_params(), default_grid()
    clean = qf.run(qf.RunConfig(steps=20, snapshot_every=10), params, grid)
    quiet = qf.run(
        qf.RunConfig(steps=20, snapshot_every=10, noise=noise, noise_amplitude=0.0, seed=3),
        params, grid,
    )
    for a, b in zip(record_arrays(clean), record_arrays(quiet)):
        assert np.array_equal(a, b)
    assert clean.status == quiet.status
    assert all(np.array_equal(clean.snapshots[k][0], quiet.snapshots[k][0]) for k in (0, 10, 20))


@pytest.mark.parametrize("noise", ["initial", "per_step"])
def test_run_is_deterministic(noise):
    params, grid = default_params(), default_grid()
    cfg = qf.RunConfig(steps=30, noise=noise, seed=5)
    r1 = qf.run(cfg, params, grid)
    r2 = qf.run(cfg, params, grid)
    for a, b in zip(record_arrays(r1), record_arrays(r2)):
        assert np.array_equal(a, b)
    assert r1.status == r2.status


@pytest.mark.parametrize("noise", ["initial", "per_step"])
def test_run_leaves_a_supplied_state_untouched(noise):
    # a state is a value: noise and steps build new states, so the caller's
    # arrays come back bit-identical although the run never copies them;
    # the step-0 snapshot holds its own V, not the caller's array
    params, grid = default_params(), default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    ln_rho, V = state.ln_rho.tobytes(), state.V.tobytes()
    rec = qf.run(qf.RunConfig(steps=10, noise=noise, seed=2, snapshot_every=1), params, grid, state=state)
    assert (state.ln_rho.tobytes(), state.V.tobytes()) == (ln_rho, V)
    assert not np.shares_memory(rec.snapshots[0][1], state.V)
    with pytest.raises(FrozenInstanceError):
        state.ln_rho = state.ln_rho + 1.0


def test_run_refuses_a_supplied_state_it_cannot_weigh():
    # a NaN in ln rho makes the step-0 weights unsummable: nothing is yielded
    params, grid = default_params(), default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    ln_rho = state.ln_rho.copy()
    ln_rho[grid.n // 2] = np.nan
    nan_state = FluidState(state.t, ln_rho, state.V)
    with pytest.raises(qf.DegenerateDensityError, match="^density weights are not summable$"):
        qf.run(qf.RunConfig(steps=4), params, grid, state=nan_state)
    with pytest.raises(qf.DegenerateDensityError):
        next(qf.trajectory(qf.RunConfig(steps=4), params, grid, nan_state))


@pytest.mark.parametrize("shift, mass", [(720.0, "inf"), (-760.0, "0.0")], ids=["overflow", "underflow"])
def test_run_refuses_a_supplied_state_whose_mass_is_not_a_finite_positive_number(shift, mass):
    # exp(ln rho) leaves the float range about 709 e-folds from a unit
    # density, where the moments, taken relative to the peak, still measure:
    # one ValueError naming the mass before anything is yielded, and no
    # numpy warning on the way
    params, grid = default_params(), default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    shifted = FluidState(state.t, state.ln_rho + shift, state.V)
    match = f"^start state's mass must be finite and positive, got {mass}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            qf.run(qf.RunConfig(steps=4), params, grid, state=shifted)
        with pytest.raises(ValueError, match=match):
            next(qf.trajectory(qf.RunConfig(steps=4), params, grid, shifted))


@pytest.mark.parametrize("ln_rho_cells, V_cells", [(191, 192), (192, 193)], ids=["ln_rho", "V"])
def test_run_refuses_a_supplied_state_that_does_not_fit_the_grid(ln_rho_cells, V_cells):
    params, grid = default_params(), default_grid()
    state = FluidState(0.0, np.zeros(ln_rho_cells), np.zeros(V_cells))
    match = f"^start state has {ln_rho_cells} ln_rho and {V_cells} V values, but the grid has 192 cells$"
    with pytest.raises(ValueError, match=match):
        qf.run(qf.RunConfig(steps=4), params, grid, state=state)
    with pytest.raises(ValueError, match=match):
        next(qf.trajectory(qf.RunConfig(steps=4), params, grid, state))


def scale_invariance_case(name):
    """A preset capped at 200 steps, or the default scenario over 40 steps
    with the named estimator."""
    if name.startswith("fig"):
        params, config, grid = qf.preset(name)
        return params, replace(config, steps=min(config.steps, 200)), grid
    return default_params(), qf.RunConfig(steps=40, estimator=name), default_grid()


@pytest.mark.parametrize("name", ["fig1", "fig4", "fig5", "fig6", "fig7", "oracle_exact", "none"])
def test_run_trajectory_scale_invariance(name):
    # multiplying the initial density by a constant leaves the moment
    # trajectory unchanged: every force path and the sponge are scale-free
    params, cfg, grid = scale_invariance_case(name)
    base = qf.init_coherent_state(params, grid, 0.0)
    scaled = replace(base, ln_rho=base.ln_rho + math.log(3.0))
    r1 = qf.run(cfg, params, grid, state=base)
    r2 = qf.run(cfg, params, grid, state=scaled)
    assert (r1.final_status, r1.steps_survived) == (r2.final_status, r2.steps_survived)
    assert np.max(np.abs(r1.mean - r2.mean)) <= 1e-9
    assert np.max(np.abs(r1.var / r2.var - 1.0)) <= 1e-9
    assert np.allclose(r2.mass, 3.0 * r1.mass, rtol=1e-9)


def test_run_oracle_estimator_tracks_center_over_a_period():
    params, grid = default_params(), default_grid()
    rec = qf.run(qf.RunConfig(steps=64, estimator="oracle_exact"), params, grid)
    assert rec.steps_survived == 64
    assert np.max(rec.center_error) <= 0.02


def test_drift_kick_keeps_the_amplitude_over_ten_periods():
    # the module docstring's claim: drift with the old velocity, kick with
    # the force at the new density, and the center map is symplectic; a
    # forward-Euler map would grow the amplitude by exp(omega^2 dt^2 / 2)
    # per step, about 21x over these 640 steps
    params, grid = default_params(), default_grid()
    period = int(round(2 * math.pi / params.omega))
    rec = qf.run(qf.RunConfig(steps=10 * period, estimator="gaussian_fit"), params, grid)
    assert rec.final_status == "ok" and rec.steps_survived == 10 * period
    amplitude = np.max(np.abs(rec.mean[-period:]))
    assert amplitude == pytest.approx(params.a, rel=0.01)


def step_jacobian(state, grid, params, config, eps=1e-6):
    """The 2n x 2n Jacobian of one ``drift_kick_step`` about ``state``, by
    central differences: column i is the change of (ln rho, V) per unit
    change of the i-th entry of (ln rho, V)."""
    n = grid.n
    x0 = np.concatenate([state.ln_rho, state.V])
    J = np.empty((2 * n, 2 * n))
    for i in range(2 * n):
        ends = []
        for h in (eps, -eps):
            x = x0.copy()
            x[i] += h
            new = qf.drift_kick_step(FluidState(state.t, x[:n], x[n:]), grid, params, config)
            ends.append(np.concatenate([new.ln_rho, new.V]))
        J[:, i] = (ends[0] - ends[1]) / (2 * eps)
    return J


@pytest.mark.parametrize("half_width", [96, 128])
def test_fig1_loop_is_neutral_about_the_resting_packet(half_width):
    # at a = 0 the packet rests, and no mode of fig1's loop grows: the
    # largest |eigenvalue| of one step is 1 (1 + 4e-9 on +-96, 1 + 9e-10 on
    # +-128); a force measured before the drift would grow the center's
    # mode by about omega^2 dt^2 / 2 a step
    params, config, _ = qf.preset("fig1")
    params = replace(params, a=0.0)
    grid = qf.make_grid(-half_width, 1.0, 2 * half_width)
    J = step_jacobian(qf.init_coherent_state(params, grid), grid, params, config)
    assert abs(np.max(np.abs(np.linalg.eigvals(J))) - 1.0) < 1e-6


@pytest.mark.parametrize("tau, dt", [
    (0.5, 0.5), (0.5, 0.25), (1.0, 1.0), (1.0, 0.5), (1.0, 0.25), (2.0, 1.0), (2.0, 0.5), (2.0, 0.25),
])
def test_a_force_measured_tau_late_grows_the_amplitude_by_exp_pi_omega_tau_per_period(tau, dt):
    # fig1's loop, its fit fed the density of d = tau/dt steps back (the
    # start's before step d): averaged over the density, the fitted force
    # D^2 (x - mean(t - tau))/var^2 plus the trap makes the center obey
    # mean'' = -omega^2 mean(t - tau), whose amplitude grows by
    # exp(pi omega tau) per period to O((omega tau)^2) (Hale and Verduyn
    # Lunel, Introduction to Functional Differential Equations, 1993).
    # Measured, mean(T)/a reads 1.1667, 1.3598-1.3603 and 1.8339-1.8354
    # against 1.1667, 1.3613 and 1.8531: the gap of the logs is at most
    # 0.27 (omega tau)^2, at tau = 2, dt = 0.25
    params, config, grid = qf.preset("fig1")
    config = replace(config, dt=dt)
    delay = round(tau / dt)
    state = qf.init_coherent_state(params, grid)
    boot = qf.build_force_field(grid, params, config, state.ln_rho, state.ln_rho, 0.0)
    state = FluidState(0.0, state.ln_rho, state.V + 0.5 * dt * boot)
    history = [state.ln_rho] * delay
    period = 2 * math.pi / params.omega
    for _ in range(round(period / dt)):
        drifted = integrator._continuity_update(state.ln_rho, state.V, dt, grid.dx)
        state = qf.drift_kick_step(state, grid, params, config, history[-delay] - drifted)
        history.append(state.ln_rho)
    growth = qf.moments(state.ln_rho, grid).mean / params.a
    omega_tau = params.omega * tau
    assert abs(math.log(growth) - math.pi * omega_tau) <= 0.5 * omega_tau**2


def test_run_convergence_under_refinement():
    # halving dx and dt cuts the max center error by at least 1.8x
    params = default_params()

    def max_err(dx, dt, steps):
        grid = qf.make_grid(-96.0, dx, int(round(192 / dx)))
        rec = qf.run(qf.RunConfig(steps=steps, dt=dt, estimator="oracle_exact"), params, grid)
        assert rec.steps_survived == steps
        return np.max(rec.center_error)

    e_coarse = max_err(1.0, 1.0, 16)
    e_fine = max_err(0.5, 0.5, 32)
    assert e_coarse / e_fine >= 1.8


@pytest.mark.parametrize("kp", [0.0, 1.0])
def test_fitted_center_of_a_two_packet_start_rides_the_pendulum_at_first_order(kp):
    # in a harmonic trap the quantum and pressure forces do no net work on
    # the center of mass (Kohn's theorem), so a start at rest keeps it on
    # X0 cos(omega t) whatever its shape; the Gaussian-fit loop tracks that
    # at the Lax-Friedrichs scheme's first order.  Max error over T = 32 at
    # dx = 1/k, dt = 1/(4k), k = 1, 2, 4: 0.117, 0.063, 0.033 at kp = 0 and
    # 0.330, 0.179, 0.093 at kp = 1, orders 0.89-0.94; the bound is 0.8.
    # (dt = dx dies on this start, at t = 11, 8 and 6.5.)
    params = default_params(kp=kp)
    errors = []
    for k in (1, 2, 4):
        grid = default_grid(1.0 / k, 192 * k)
        x, s2 = grid.positions, params.equilibrium_sigma2()
        rho = np.exp(-((x + 10.0) ** 2) / (2 * s2)) + 0.5 * np.exp(-((x - 14.0) ** 2) / (2 * s2))
        config = qf.RunConfig(dt=1.0 / (4 * k), steps=128 * k, estimator="gaussian_fit")
        steps = qf.trajectory(config, params, grid, FluidState(0.0, np.log(rho), np.zeros(grid.n)))
        times, centers = [], []
        with pytest.raises(StopIteration) as stop:
            while True:
                _, state, m, *_ = next(steps)
                times.append(state.t)
                centers.append(m.mean)
        assert stop.value.value == "ok" and len(centers) == config.steps + 1
        pendulum = centers[0] * np.cos(params.omega * np.array(times))
        errors.append(np.max(np.abs(np.array(centers) - pendulum)))
    orders = [math.log2(c / f) for c, f in zip(errors, errors[1:])]
    assert min(orders) >= 0.8


def test_run_mass_drift_shrinks_under_refinement():
    # ln-rho transport is not conservative; the drift over one period must
    # decrease monotonically under simultaneous (dx, dt) halving
    params = default_params()
    drifts = []
    for dx, dt in ((1.0, 1.0), (0.5, 0.5), (0.25, 0.25)):
        grid = qf.make_grid(-96.0, dx, int(round(192 / dx)))
        rec = qf.run(qf.RunConfig(steps=int(round(64 / dt)), dt=dt), params, grid)
        assert rec.steps_survived == int(round(64 / dt))
        drifts.append(abs(rec.mass[-1] / rec.mass[0] - 1.0))
    assert drifts[0] > drifts[1] > drifts[2]


def test_run_returns_partial_record_on_divergence():
    # without any quantum force the trap squeezes the packet until the
    # moments guard trips; the run must stop early, not raise
    params, grid = default_params(), default_grid()
    rec = qf.run(qf.RunConfig(steps=200, estimator="none"), params, grid)
    assert rec.final_status in ("diverged_dispersion", "diverged_nonfinite")
    assert rec.steps_survived < 200
    assert len(rec.t) == rec.steps_survived + 1
    assert len(rec.status) == rec.steps_survived + 1


@pytest.mark.parametrize("dt", [None, 0.1])
def test_trajectory_yields_what_run_records_and_returns_its_final_status(dt):
    # fig6 runs 40 steps at its own dt; at dt = 0.1 it diverges at step 9
    params, config, grid = qf.preset("fig6")
    config = replace(config, steps=40, snapshot_every=1, dt=dt or config.dt)
    steps = qf.trajectory(config, params, grid)
    items = []
    with pytest.raises(StopIteration) as stop:
        while True:
            items.append(next(steps))
    record = qf.run(config, params, grid)
    assert stop.value.value == record.final_status == ("ok" if dt is None else "diverged_dispersion")
    assert len(items) == record.steps_survived + 1
    # drained to the end, every yielded item still holds what run recorded
    # at its step: resuming the generator changes no state it yielded
    for k, (step, state, m, mass, v_max, status) in enumerate(items):
        rho, V = record.snapshots[k]
        assert (step, state.t, status) == (k, record.t[k], record.status[k])
        assert (m.mean, m.var, mass, v_max) == (record.mean[k], record.var[k], record.mass[k], record.max_abs_V[k])
        assert np.array_equal(np.exp(state.ln_rho), rho) and np.array_equal(state.V, V)


def test_run_snapshot_cadence():
    params, grid = default_params(), default_grid()
    rec = qf.run(qf.RunConfig(steps=20, snapshot_every=5), params, grid)
    assert sorted(rec.snapshots) == [0, 5, 10, 15, 20]
    rho, V = rec.snapshots[10]
    assert rho.shape == (grid.n,) and V.shape == (grid.n,)


def test_run_initial_noise_perturbs_state():
    params, grid = default_params(), default_grid()
    clean = qf.run(qf.RunConfig(steps=5), params, grid)
    noisy = qf.run(qf.RunConfig(steps=5, noise="initial", seed=3), params, grid)
    assert not np.allclose(clean.mass[0], noisy.mass[0], rtol=1e-3)
    assert noisy.smoothness_series[0] > 10 * clean.smoothness_series[0]


def test_run_per_step_noise_targets():
    params, grid = default_params(), default_grid()
    state_noise = qf.run(qf.RunConfig(steps=10, noise="per_step", seed=4), params, grid)
    meas_noise = qf.run(qf.RunConfig(steps=10, noise="measurement", seed=4), params, grid)
    # state-side noise inflates the carried mass every step; measurement-side
    # leaves the fluid's own mass nearly untouched
    assert state_noise.mass[-1] / state_noise.mass[0] > 50.0
    assert abs(meas_noise.mass[-1] / meas_noise.mass[0] - 1.0) < 0.05


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"])
def test_sponge_is_on_for_the_fitted_pressure_presets_only(name):
    params, config, _ = qf.preset(name)
    assert sponge_active(params, config) == (name in ("fig4", "fig5"))


@pytest.mark.parametrize(
    "name, half_width",
    [
        ("fig4", 112), ("fig4", 128), ("fig5", 128), ("fig5", 192), ("fig6", 112), ("fig6", 128),
        ("fig7", 112), ("fig7", 128),
    ],
)
def test_presets_run_their_window_on_wider_grids(name, half_width):
    # the presets are set up on +-96 cells; on these wider unit-spaced grids
    # each still runs every step, within criterion 1's 5% center error
    params, config, _ = qf.preset(name)
    rec = qf.run(config, params, qf.make_grid(-half_width, 1.0, 2 * half_width))
    assert (rec.final_status, rec.steps_survived) == ("ok", config.steps)
    assert rec.max_center_error < 0.05


def test_run_cfl_warning_recorded():
    params, grid = default_params(), default_grid()
    state = replace(qf.init_coherent_state(params, grid, 0.0), V=np.full(grid.n, 1.2))  # above dx/dt
    rec = qf.run(qf.RunConfig(steps=3), params, grid, state=state)
    assert "cfl_warning" in rec.status


def test_build_force_field_unknown_estimator():
    # the config refuses an estimator before any force is built
    params, grid = default_params(), default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    with pytest.raises(ValueError, match="unknown estimator"):
        qf.build_force_field(grid, params, qf.RunConfig(estimator="bogus"), state.ln_rho, state.ln_rho, 0.0)


def test_build_force_field_measures_the_quantum_force_and_pushes_with_the_true_density():
    params, grid = default_params(kp=1.0), default_grid()
    ln_rho = qf.init_coherent_state(params, grid, 0.0).ln_rho
    measured = ln_rho + np.random.default_rng(3).uniform(0.0, 1.0, grid.n)
    total = qf.build_force_field(grid, params, qf.RunConfig(estimator="gaussian_fit"), measured, ln_rho, 0.0)
    # past the trap and the quantum force of the measured density, what the
    # total holds is the pressure of the true density
    pressure = total - (qf.external_force(grid, params) + qf.gaussian_fit_force(measured, grid, params))
    expected = qf.pressure_force(ln_rho, grid, params)
    assert np.max(np.abs(expected)) > 0.1
    np.testing.assert_allclose(pressure, expected, rtol=1e-12, atol=0.0)


def test_build_force_field_without_pressure_has_no_pressure_part():
    params, grid = default_params(), default_grid()
    ln_rho = qf.init_coherent_state(params, grid, 0.0).ln_rho
    total = qf.build_force_field(grid, params, qf.RunConfig(), ln_rho, ln_rho, 0.0)
    estimate = qf.gaussian_fit_force(ln_rho, grid, params)
    assert total.tobytes() == (qf.external_force(grid, params) + estimate).tobytes()


@pytest.mark.parametrize("name, changes, steps, status", [
    (None, {"steps": 16}, 16, "ok"),
    ("fig6", {"dt": 0.1}, 9, "diverged_dispersion"),  # past the stencil's ripple limit
], ids=["full", "diverged"])
def test_summary_errors_populated(name, changes, steps, status):
    params, config, grid = qf.preset(name) if name else (default_params(), qf.RunConfig(), default_grid())
    rec = qf.run(replace(config, **changes), params, grid)
    assert rec.steps_survived == len(rec.t) - 1 == steps
    assert rec.final_status == status
    assert rec.max_center_error == np.max(rec.center_error)
    assert rec.max_var_error == np.max(rec.dispersion_error)
    with pytest.raises(FrozenInstanceError):
        rec.final_status = "ok"
