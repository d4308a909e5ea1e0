"""Grid, parameter, state, and initial-condition tests."""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import qfluid as qf
from qfluid.cli import main
from qfluid.core import RunConfig
from qfluid.presets import default_grid, default_params


def test_make_grid_positions():
    g = qf.make_grid(0.0, 1.0, 160)
    assert g.position(159) == 159.0
    assert g.positions[0] == 0.0
    g2 = qf.make_grid(0.0, 0.5, 160)
    assert g2.position(10) == 5.0
    assert np.allclose(g2.positions, 0.5 * np.arange(160))


def test_make_grid_rejects_bad_arguments():
    # the grid checks itself, so building it directly is refused alike
    for build in (qf.make_grid, qf.SpatialGrid):
        with pytest.raises(ValueError):
            build(0.0, -1.0, 10)
        with pytest.raises(ValueError):
            build(0.0, 0.0, 10)
        with pytest.raises(ValueError):
            build(0.0, 1.0, 6)
        for x0, dx in ((0.0, math.inf), (0.0, math.nan), (math.nan, 1.0), (-math.inf, 1.0)):
            with pytest.raises(ValueError):
                build(x0, dx, 10)
        # a finite dx whose square overflows: the forces divide by dx^2
        with pytest.raises(ValueError, match=r"dx\^2 must be finite"):
            build(0.0, 1e160, 10)
        assert build(0.0, 1e150, 10).dx == 1e150
        # ... and one whose square underflows to 0 or to a subnormal (at
        # dx = 1e-160, D/dx^2 overflows): dx^2 must be a normal float
        for dx in (1e-300, 1e-160, math.nextafter(2.0**-511, 0.0)):
            with pytest.raises(ValueError, match=re.escape(f"too small to square, got dx={dx}")):
                build(0.0, dx, 10)
        assert build(0.0, 2.0**-511, 10).dx ** 2 == sys.float_info.min
        assert build(0.0, 1e-150, 10).dx == 1e-150
        # end positions, or a span, whose square overflows: the trap, the
        # moments and the reference square them
        for x0, dx, n in ((-9.6e154, 1e153, 192), (1.3e154, 1e153, 7), (-1e154, 2.5e153, 9)):
            with pytest.raises(ValueError, match=re.escape(f"too large to square, got x0={x0}, dx={dx}, n={n}")):
                build(x0, dx, n)
        assert build(-1.3e154, 2e153, 7).x_end == -1.3e154 + 6 * 2e153
        for n in (10.7, 10.0, True):
            with pytest.raises(ValueError, match="n must be an integer"):
                build(0.0, 1.0, n)
        assert build(0.0, 1.0, np.int64(10)).n == 10


@pytest.mark.parametrize("x0, dx, n, reason", [
    (96.0, -1.0, 192, "spacing must be positive"),
    (-1.0, 1.0, 3, "at least 7 grid points"),
    (-96.0, math.nan, 192, "must be finite"),
])
def test_a_grid_built_directly_is_checked(x0, dx, n, reason):
    # unchecked, a reversed grid runs to "ok" with nonsense moments, a
    # 3-point grid crashes inside the solvers, and dx = nan reads as a
    # degenerate density
    with pytest.raises(ValueError, match=reason):
        qf.SpatialGrid(x0, dx, n)


def test_grid_positions_are_cached_and_read_only():
    g = qf.make_grid(0.0, 1.0, 10)
    same = qf.make_grid(0.0, 1.0, 10)
    assert g.positions is g.positions
    with pytest.raises(ValueError):
        g.positions[0] = 5.0
    assert g.positions[0] == 0.0
    # the cache is not a field: equality and hashing ignore it
    assert g == same and hash(g) == hash(same)
    wider = dataclasses.replace(g, n=12)
    assert np.array_equal(wider.positions, np.arange(12.0))
    assert len(g.positions) == 10


def test_params_validation():
    with pytest.raises(ValueError):
        qf.PhysicalParams(D=-1.0, omega=1.0)
    with pytest.raises(ValueError):
        qf.PhysicalParams(D=1.0, omega=0.0)
    with pytest.raises(ValueError):
        qf.PhysicalParams(D=1.0, omega=1.0, a=-0.5)
    with pytest.raises(ValueError):
        qf.PhysicalParams(D=1.0, omega=1.0, kp=-0.1)
    for field in ("D", "omega", "a", "kp"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                qf.PhysicalParams(**{"D": 1.0, "omega": 1.0, field: bad})
    # finite, but the forces square D and omega, and the energies a: a
    # Python float's x ** 2 raises OverflowError instead of returning inf
    for field in ("D", "omega", "a"):
        with pytest.raises(ValueError, match=f"{field} is too large to square"):
            qf.PhysicalParams(**{"D": 1.0, "omega": 1.0, field: 1e155})
    assert qf.PhysicalParams(D=1e150, omega=1e150).D == 1e150
    p = qf.PhysicalParams(D=2.0, omega=0.5)
    assert p.equilibrium_sigma2() == pytest.approx(4.0)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(dt=0.0)
    with pytest.raises(ValueError):
        RunConfig(steps=0)
    with pytest.raises(ValueError):
        RunConfig(estimator="nope")
    with pytest.raises(ValueError):
        RunConfig(noise="sometimes")
    with pytest.raises(ValueError, match="^snapshot_every must be >= 0, got -1$"):
        RunConfig(snapshot_every=-1)
    with pytest.raises(ValueError, match="^noise_amplitude must be non-negative, got -1$"):
        RunConfig(noise_amplitude=-1)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        RunConfig(seed=-1)
    for field in ("dt", "noise_amplitude"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                RunConfig(**{field: bad})
    for field in ("steps", "seed", "snapshot_every"):
        for bad in (2.5, 2.0, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                RunConfig(**{field: bad})
    cfg = RunConfig(steps=np.int64(3), seed=np.int32(1), snapshot_every=np.int64(2))
    assert qf.run(cfg, default_params(), default_grid()).steps_survived == 3


def test_coherent_state_at_t0():
    params = default_params()
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    x = grid.positions
    # density maximum sits at x = a (cos 0 = 1); a = 8 is on the grid
    j_peak = int(np.argmax(state.ln_rho))
    assert x[j_peak] == params.a
    # peak value sqrt(omega / 2 pi D) for M = 1
    peak = math.sqrt(params.omega / (2 * math.pi * params.D))
    assert math.exp(state.ln_rho[j_peak]) == pytest.approx(peak, rel=1e-12)
    # velocity field vanishes at t = 0 (sin 0 = 0)
    assert np.all(state.V == 0.0)


def test_coherent_state_log_density_is_quadratic():
    params = default_params()
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    d2 = np.diff(state.ln_rho, 2)
    expected = -grid.dx**2 * params.omega / params.D
    assert np.allclose(d2, expected, rtol=0, atol=1e-9)


def test_coherent_state_quarter_period_velocity():
    params = default_params()
    grid = default_grid()
    t_quarter = 0.5 * math.pi / params.omega
    state = qf.init_coherent_state(params, grid, t_quarter)
    assert np.allclose(state.V, -params.a * params.omega)


def test_coherent_state_warns_if_packet_does_not_fit():
    params = default_params()
    with pytest.warns(UserWarning):
        qf.init_coherent_state(params, qf.make_grid(-30.0, 1.0, 60), 0.0)


@pytest.mark.parametrize("caller", ["init_coherent_state", "run", "cross_check", "main"])
def test_packet_fit_warning_names_the_first_line_outside_qfluid(tmp_path, caller):
    # however deep inside the package the packet is built, the warning
    # points at the code that called into it.  The command line warns once
    # too, and its default 5% tolerance fails the packet: exit 3
    params, grid = default_params(), default_grid(n=100)
    config = RunConfig(estimator="oracle_exact", steps=4)
    calls = {
        "init_coherent_state": lambda: qf.init_coherent_state(params, grid),
        "run": lambda: qf.run(config, params, grid),
        "cross_check": lambda: qf.cross_check(config, params, grid),
        "main": lambda: main(["compare", "--n", "100", "--out", str(tmp_path)]),
    }
    with pytest.warns(UserWarning) as record:
        result = calls[caller]()
    assert [w.filename for w in record if "does not fit" in str(w.message)] == [__file__]
    if caller == "main":
        assert result == 3


def test_mass_uniform_density():
    grid = qf.make_grid(0.0, 1.0, 100)
    assert qf.mass(np.zeros(100), grid) == pytest.approx(100.0)


def test_mass_of_coherent_packet_matches_quadrature():
    params = default_params()
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    # independent oracle: quadrature of the closed-form density
    wave = qf.OracleWave(params)
    analytic, err = quad(lambda xx: wave.density(xx, 0.0), -200.0, 200.0, limit=200)
    assert err < 1e-6
    assert analytic == pytest.approx(1.0, abs=1e-8)
    assert qf.mass(state.ln_rho, grid) == pytest.approx(analytic, abs=1e-6)


def test_mass_scales_linearly():
    params = default_params()
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    doubled = state.ln_rho + math.log(2.0)
    assert qf.mass(doubled, grid) == pytest.approx(2.0 * qf.mass(state.ln_rho, grid), rel=1e-12)


def test_mass_translation_invariance():
    params = default_params()
    grid = default_grid()
    sigma = params.sigma()
    base = None
    # clearance beyond 5.7 sigma keeps the two-sided tail-truncation
    # difference below the 1e-8 target
    for center in (-3.0, 0.0, 3.0):
        assert abs(center) + 5.7 * sigma < grid.x_end
        ln_rho = -(grid.positions - center) ** 2 * params.omega / (2 * params.D)
        m = qf.mass(ln_rho, grid)
        if base is None:
            base = m
        assert m == pytest.approx(base, rel=1e-8)


def test_initialized_variance_equals_equilibrium():
    params = default_params()
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    m = qf.moments(state.ln_rho, grid)
    assert m.var == pytest.approx(params.equilibrium_sigma2(), rel=1e-5)
    assert m.mean == pytest.approx(params.a, abs=1e-4)
