"""Drift-kick stepper and the feedback loop (`run`): its noise, floor and record."""

import math
from dataclasses import replace

import numpy as np
import pytest

import qfluid as qf
from qfluid.core import FluidState
from qfluid.integrator import PRESSURE_GATE_REL, PRESSURE_GATE_SHARPNESS, RHO_FLOOR, sponge_active
from qfluid.presets import default_grid, default_params


def step(state, dt, a=0.0, omega=0.1):
    """One drift-kick step on a 21-point grid with the closed-form force.
    With a = 0 it cancels the trap exactly; with a > 0 the net force is the
    uniform -omega^2 a cos(omega t) at the post-drift time."""
    grid = qf.make_grid(-10.0, 1.0, 21)
    params = qf.PhysicalParams(D=1.0, omega=omega, a=a)
    config = qf.RunConfig(dt=dt, estimator="oracle_exact")
    return qf.drift_kick_step(state, grid, params, config)


def test_lax_step_uniform_state_is_stationary():
    state = FluidState(0.0, np.full(21, -1.3), np.zeros(21))
    status, new = step(state, 0.5)
    assert status == "ok"
    assert new.t == 0.5
    assert np.allclose(new.ln_rho, -1.3)
    assert np.allclose(new.V, 0.0)
    assert state.t == 0.0 and np.array_equal(state.ln_rho, np.full(21, -1.3))


def test_lax_step_uniform_force_kicks_velocity():
    state = FluidState(0.0, np.full(21, 0.7), np.zeros(21))
    a, omega, dt = 2.0, 0.3, 2.0
    f = -omega**2 * a * math.cos(omega * dt)
    _, new = step(state, dt, a=a, omega=omega)
    assert np.allclose(new.V, 2.0 * f)
    assert np.allclose(new.ln_rho, 0.7)


def test_lax_step_pure_advection():
    # uniform V, linear ln rho: interior decreases by v0 * s * dt
    x = qf.make_grid(-10.0, 1.0, 21).positions
    v0, s, dt = 0.4, 0.11, 0.5
    state = FluidState(0.0, s * x, np.full(21, v0))
    _, new = step(state, dt)
    assert np.allclose(new.ln_rho[1:-1], s * x[1:-1] - v0 * s * dt, atol=1e-14)
    assert np.allclose(new.V, v0)


def test_lax_step_flags_cfl():
    state = FluidState(0.0, np.zeros(21), np.full(21, 1.5))
    status, _ = step(state, 1.0)
    assert status == "cfl_warning"


def test_lax_step_flags_nonfinite():
    state = FluidState(0.0, np.zeros(21), np.zeros(21))
    state.V[5] = np.nan
    status, _ = step(state, 1.0)
    assert status == "diverged_nonfinite"


@pytest.mark.parametrize("name", ["fig1", "fig4", "fig5", "fig6", "fig7"])
def test_run_is_mirror_symmetric(name):
    # x -> -x on a grid symmetric about 0 maps the loop onto itself: the
    # mirrored packet's center is the negated center, its variance the same
    params, config, grid = qf.preset(name)
    config = replace(config, steps=min(config.steps, 200))
    grid = qf.make_grid(-(grid.n // 2) * grid.dx, grid.dx, grid.n + 1)
    assert grid.position(grid.n // 2) == 0.0
    state = qf.init_coherent_state(params, grid, 0.0)
    mirror = FluidState(state.t, state.ln_rho[::-1].copy(), -state.V[::-1])
    r1 = qf.run(config, params, grid, state=state)
    r2 = qf.run(config, params, grid, state=mirror)
    assert r1.final_status == r2.final_status == "ok"
    assert np.max(np.abs(r1.mean + r2.mean)) <= 1e-12
    assert np.max(np.abs(r1.var / r2.var - 1.0)) <= 1e-12


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


def test_run_clamps_ln_rho_at_the_density_floor():
    # a hole 60 e-folds deep at the center cell: the first drift averages it
    # into the neighbors, which would land 3.6 below the floor unclamped
    params, config, grid = qf.preset("fig1")
    state = qf.init_coherent_state(params, grid, 0.0)
    peak = state.ln_rho.max()
    state.ln_rho[96] = peak - 60.0
    rec = qf.run(replace(config, steps=2, snapshot_every=1), params, grid, state=state)
    assert rec.steps_survived == 2
    floor = peak + math.log(RHO_FLOOR)
    assert RHO_FLOOR == 1e-12
    assert np.log(rec.snapshots[1][0]).min() >= floor - 1e-9


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
    # trajectory unchanged: every force path, the pressure gate and the
    # sponge are scale-free
    params, cfg, grid = scale_invariance_case(name)
    base = qf.init_coherent_state(params, grid, 0.0)
    scaled = base.copy()
    scaled.ln_rho = scaled.ln_rho + math.log(3.0)
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
    assert np.max(qf.center_error(rec, params)) <= 0.02


def test_run_convergence_under_refinement():
    # halving dx and dt cuts the max center error by at least 1.8x
    params = default_params()

    def max_err(dx, dt, steps):
        grid = qf.make_grid(-96.0, dx, int(round(192 / dx)))
        rec = qf.run(qf.RunConfig(steps=steps, dt=dt, estimator="oracle_exact"), params, grid)
        assert rec.steps_survived == steps
        return np.max(qf.center_error(rec, params))

    e_coarse = max_err(1.0, 1.0, 16)
    e_fine = max_err(0.5, 0.5, 32)
    assert e_coarse / e_fine >= 1.8


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


def test_run_cfl_warning_recorded():
    params, grid = default_params(), default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    state.V = np.full(grid.n, 1.2)  # above dx/dt
    rec = qf.run(qf.RunConfig(steps=3), params, grid, state=state)
    assert "cfl_warning" in rec.status


def test_build_force_field_unknown_estimator():
    params, grid = default_params(), default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    with pytest.raises(ValueError):
        qf.build_force_field(grid, params, "bogus", state.ln_rho, state.ln_rho, 0.0)


def test_build_force_field_measures_the_quantum_force_and_pushes_with_the_true_density():
    params, grid = default_params(kp=1.0), default_grid()
    ln_rho = qf.init_coherent_state(params, grid, 0.0).ln_rho
    measured = ln_rho + np.random.default_rng(3).uniform(0.0, 1.0, grid.n)
    forces = qf.build_force_field(grid, params, "gaussian_fit", measured, ln_rho, 0.0)
    assert np.array_equal(forces.quantum, qf.gaussian_fit_force(measured, grid, params))
    ln_gate = ln_rho.max() + math.log(PRESSURE_GATE_REL)
    gate = 1.0 + np.exp(np.clip(-PRESSURE_GATE_SHARPNESS * (ln_rho - ln_gate), -60.0, 60.0))
    expected = qf.pressure_force(ln_rho, grid, params) / gate
    assert np.max(np.abs(expected)) > 0.1
    np.testing.assert_allclose(forces.pressure, expected, rtol=1e-12, atol=0.0)


def test_summary_errors_populated():
    params, grid = default_params(), default_grid()
    rec = qf.run(qf.RunConfig(steps=16), params, grid)
    assert rec.max_center_error == pytest.approx(np.max(qf.center_error(rec, params)))
    assert rec.max_var_error == pytest.approx(np.max(qf.dispersion_error(rec, params)))
