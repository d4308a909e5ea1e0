"""Crank-Nicolson wave solver and the fluid <-> wave conversions."""

import math

import numpy as np
import pytest

import qfluid as qf
from qfluid.core import FluidState
from qfluid.presets import default_grid, default_params


def wide_grid():
    # tails clear the Dirichlet walls so norm checks see only the scheme
    return qf.make_grid(-128.0, 1.0, 256)


def test_cn_step_uniform_wave_is_stationary():
    # vanishing potential and flat psi: nothing moves away from the walls
    params = qf.PhysicalParams(D=1.0, omega=1e-12)
    grid = qf.make_grid(-48.0, 1.0, 97)
    psi = np.ones(97, dtype=complex)
    out = qf.cn_step(qf.WaveState(0.0, psi), grid, params, 0.5)
    assert out.t == 0.5
    # the implicit solve feels the Dirichlet walls with fast spatial
    # decay; twenty cells in, the flat wave is untouched
    interior = slice(20, -20)
    assert np.max(np.abs(out.psi[interior] - 1.0)) < 1e-10


def test_cn_step_rejects_nonpositive_dt():
    params = default_params()
    grid = wide_grid()
    wave = qf.fluid_to_wave(qf.init_coherent_state(params, grid, 0.0), grid, params)
    with pytest.raises(ValueError):
        qf.cn_step(wave, grid, params, -1.0)


def test_cn_preserves_norm():
    params = default_params()
    grid = wide_grid()
    wave = qf.fluid_to_wave(qf.init_coherent_state(params, grid, 0.0), grid, params)
    n0 = wave.norm2(grid)
    for _ in range(64):
        wave = qf.cn_step(wave, grid, params, 1.0)
    assert abs(wave.norm2(grid) / n0 - 1.0) <= 1e-10


def test_cn_center_returns_after_one_period():
    params = default_params()
    grid = default_grid()
    rec = qf.run_reference(params, grid, dt=1.0, steps=64, snapshot_every=0)
    assert rec.steps_survived == 64
    assert rec.mean[-1] == pytest.approx(params.a, abs=0.01 * params.a)
    assert rec.var[-1] == pytest.approx(params.equilibrium_sigma2(), rel=0.01)


def test_run_reference_snapshot_cadence():
    params, grid = default_params(), default_grid()
    rec = qf.run_reference(params, grid, dt=1.0, steps=10, snapshot_every=5)
    assert sorted(rec.snapshots) == [0, 5, 10]
    for rho, V in rec.snapshots.values():
        assert rho.shape == (grid.n,) and V.shape == (grid.n,)


def test_cn_norm_preserved_with_pressure():
    # the lagged logarithmic term keeps each step Hermitian
    params = default_params(kp=1.0)
    grid = wide_grid()
    wave = qf.fluid_to_wave(qf.init_coherent_state(params, grid, 0.0), grid, params)
    n0 = wave.norm2(grid)
    for _ in range(64):
        wave = qf.cn_step(wave, grid, params, 0.5)
    assert abs(wave.norm2(grid) / n0 - 1.0) <= 1e-10


def test_cn_pressure_drives_oscillatory_spreading():
    # sigma^2 rises under pressure and comes back near its initial value
    # around half a period
    params = default_params(kp=1.0)
    grid = default_grid()
    rec = qf.run_reference(params, grid, dt=0.25, steps=160, snapshot_every=0)
    assert rec.steps_survived == 160
    ratio = rec.var / rec.var[0]
    assert ratio.max() >= 1.2
    half = int(round(32.0 / 0.25))
    window = np.abs(ratio[half - 12 : half + 13] - 1.0)
    assert window.min() <= 0.15


def test_wave_fluid_round_trip():
    params = default_params()
    grid = default_grid()
    x = grid.positions
    ln_rho = -((x - 5.0) ** 2) / (2 * 14.0**2)
    V = 0.3 * np.sin(2 * math.pi * x / 100.0)
    state = FluidState(0.0, ln_rho, V)
    back = qf.wave_to_fluid(qf.fluid_to_wave(state, grid, params), grid, params)
    core = np.abs(x - 5.0) <= 3 * 14.0
    assert np.allclose(back.ln_rho[core], ln_rho[core], atol=1e-10)
    assert np.max(np.abs(back.V[core] - V[core])) <= 5e-3  # O(dx^2) phase gradient


def test_wave_to_fluid_extracts_uniform_velocity():
    params = default_params()
    grid = default_grid()
    t = 0.5 * math.pi / params.omega
    wave = qf.WaveState(t, qf.OracleWave(params).psi(grid.positions, t))
    fluid = qf.wave_to_fluid(wave, grid, params)
    core = np.abs(grid.positions - 0.0) <= 3 * params.sigma()
    assert np.allclose(fluid.V[core], -params.a * params.omega, rtol=5e-3)


def test_real_positive_wave_has_zero_velocity():
    params = default_params()
    grid = default_grid()
    psi = np.exp(-grid.positions**2 / 100.0).astype(complex)
    fluid = qf.wave_to_fluid(qf.WaveState(0.0, psi), grid, params)
    assert np.allclose(fluid.V, 0.0, atol=1e-12)


def test_mass_matches_between_solvers():
    params = default_params()
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    wave = qf.fluid_to_wave(state, grid, params)
    assert wave.norm2(grid) == pytest.approx(qf.mass(state, grid), rel=1e-12)
