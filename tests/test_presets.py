"""Preset contracts: each bundled experiment binds its protocol."""

import dataclasses

import pytest

import qfluid as qf


def test_preset_names():
    assert qf.preset_names() == ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"]


def test_unknown_preset_raises():
    with pytest.raises(ValueError):
        qf.preset("fig0")


@pytest.mark.parametrize(
    "name,estimator,noise,kp",
    [
        ("fig1", "gaussian_fit", "none", 0.0),
        ("fig2", "gaussian_fit", "initial", 0.0),
        ("fig3", "gaussian_fit", "measurement", 0.0),
        ("fig4", "gaussian_fit", "none", 5.0),
        ("fig5", "gaussian_fit", "none", 1.0),
        ("fig6", "finite_difference", "none", 0.0),
        ("fig7", "finite_difference", "none", 1.0),
    ],
)
def test_preset_protocol(name, estimator, noise, kp):
    params, config, grid = qf.preset(name)
    assert config.estimator == estimator
    assert config.noise == noise
    assert params.kp == kp
    # every preset lives on the shared scenario: 64 unit time steps per
    # period, amplitude under the advective CFL limit
    assert params.omega == pytest.approx(2 * 3.141592653589793 / 64)
    assert params.a * params.omega < grid.dx / config.dt or config.dt < 1.0
    # packet fits the grid
    assert params.a + 5 * params.sigma() <= grid.x_end


def test_noisy_presets_fix_seeds():
    _, cfg2, _ = qf.preset("fig2")
    _, cfg3, _ = qf.preset("fig3")
    assert cfg2.seed == 9
    assert cfg3.seed == 10


def test_presets_return_fresh_objects():
    _, c1, _ = qf.preset("fig1")
    _, c2, _ = qf.preset("fig1")
    assert c1 == c2
    # the preset table's configs are shared, so they must not be mutable
    with pytest.raises(dataclasses.FrozenInstanceError):
        c1.steps = 1


@pytest.mark.parametrize(
    "gain, death",
    [
        (0.50, None),
        (0.63, None),
        (0.70, None),
        (0.75, (277, 8.3)),
        (0.88, (100, 3.5)),
        (1.00, (55, 2.2)),
    ],
)
def test_fig6_ripple_ladder_matches_the_presets_docstring(gain, death):
    # the module docstring's ladder: fig6 over 16 time units at
    # D dt/dx^2 = gain survives up to 0.70 and dies from 0.75 on, at the
    # step and (to 0.1) the time it states
    params, config, grid = qf.preset("fig6")
    dt = gain * grid.dx**2 / params.D
    steps = round(16.0 / dt)
    record = qf.run(dataclasses.replace(config, dt=dt, steps=steps), params, grid)
    if death is None:
        assert record.final_status == "ok"
        assert record.steps_survived == steps
    else:
        step, t = death
        assert record.final_status == "diverged_dispersion"
        assert record.steps_survived == step
        assert record.t[-1] == pytest.approx(t, abs=0.1)
