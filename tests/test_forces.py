"""Force decomposition: moments, both quantum estimators, pressure, trap."""

import math

import numpy as np
import pytest

import qfluid as qf
from qfluid.core import FluidState
from qfluid.presets import default_grid, default_params


def log_quadratic_state(grid, center, sigma, amplitude=0.0):
    x = grid.positions
    return FluidState(0.0, amplitude - (x - center) ** 2 / (2 * sigma**2), np.zeros(grid.n))


def test_moments_of_coherent_packet():
    params = default_params()
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    m = qf.moments(state.ln_rho, grid)
    assert m.mean == pytest.approx(params.a, abs=1e-4)
    assert m.var == pytest.approx(params.D / params.omega, rel=1e-5)


def test_moments_two_point_masses():
    grid = qf.make_grid(-50.0, 1.0, 101)
    b = 20.0
    ln_rho = np.full(101, -80.0)
    ln_rho[30] = 0.0  # x = -20
    ln_rho[70] = 0.0  # x = +20
    m = qf.moments(ln_rho, grid)
    assert m.mean == pytest.approx(0.0, abs=1e-12)
    assert m.var == pytest.approx(b**2, rel=1e-12)


def test_moments_uniform_density():
    grid = qf.make_grid(0.0, 1.0, 101)
    m = qf.moments(np.zeros(101), grid)
    assert m.mean == pytest.approx(50.0)


def test_moments_scale_invariance():
    grid = default_grid()
    state = log_quadratic_state(grid, 5.0, 12.0)
    scaled = state.ln_rho + 0.3
    m1, m2 = qf.moments(state.ln_rho, grid), qf.moments(scaled, grid)
    assert m1.mean == pytest.approx(m2.mean, abs=1e-12)
    assert m1.var == pytest.approx(m2.var, rel=1e-12)


def test_moments_degenerate_density_raises():
    grid = qf.make_grid(-50.0, 1.0, 101)
    ln_rho = np.full(101, -200.0)
    ln_rho[50] = 0.0
    with pytest.raises(qf.DegenerateDensityError):
        qf.moments(ln_rho, grid)


def test_gaussian_fit_force_on_equilibrium_packet():
    # sigma^2 = D/omega turns D^2 (x - mean)/sigma^4 into exactly omega^2 x
    params = default_params()
    grid = default_grid()
    state = log_quadratic_state(grid, 0.0, params.sigma())
    force = qf.gaussian_fit_force(state.ln_rho, grid, params)
    x = grid.positions
    assert np.allclose(force, params.omega**2 * x, rtol=1e-5, atol=1e-8)


def test_gaussian_fit_force_vanishes_at_mean():
    params = default_params()
    grid = default_grid()
    state = log_quadratic_state(grid, 6.0, 14.0)
    force = qf.gaussian_fit_force(state.ln_rho, grid, params)
    m = qf.moments(state.ln_rho, grid)
    assert np.interp(m.mean, grid.positions, force) == pytest.approx(0.0, abs=1e-10)


def test_gaussian_fit_force_scale_invariance():
    params = default_params()
    grid = default_grid()
    state = log_quadratic_state(grid, -4.0, 10.0)
    f1 = qf.gaussian_fit_force(state.ln_rho, grid, params)
    f2 = qf.gaussian_fit_force(state.ln_rho + 0.3, grid, params)
    assert np.max(np.abs(f1 - f2)) <= 1e-12 * np.max(np.abs(f1))


def test_all_density_forces_scale_invariant():
    # rho -> c * rho leaves the stencil force and the pressure force
    # untouched: log-derivatives kill additive constants exactly
    params = default_params(kp=1.5)
    grid = default_grid()
    state = log_quadratic_state(grid, 2.0, 9.0)
    scaled = state.ln_rho + math.log(7.0)
    f_fd1 = qf.fd_quantum_force(state.ln_rho, grid, params)
    f_fd2 = qf.fd_quantum_force(scaled, grid, params)
    assert np.max(np.abs(f_fd1 - f_fd2)) <= 1e-12 * max(np.max(np.abs(f_fd1)), 1e-30)
    p1 = qf.pressure_force(state.ln_rho, grid, params)
    p2 = qf.pressure_force(scaled, grid, params)
    assert np.max(np.abs(p1 - p2)) <= 1e-12 * max(np.max(np.abs(p1)), 1e-30)


def test_gaussian_fit_force_index_units_identity():
    # computing the moments in grid-index units and dividing by dx^3
    # reproduces the physical-units formula: D^2 (j - jbar)/(sigma_idx^4 dx^3)
    # equals D^2 (x - xbar)/sigma^4
    params = default_params()
    grid = qf.make_grid(-37.5, 0.75, 120)
    state = log_quadratic_state(grid, 3.0, 7.5)
    physical = qf.gaussian_fit_force(state.ln_rho, grid, params)

    w = np.exp(state.ln_rho - np.max(state.ln_rho))
    j = np.arange(grid.n, dtype=float)
    j_bar = np.sum(w * j) / np.sum(w)
    var_idx = np.sum(w * (j - j_bar) ** 2) / np.sum(w)
    index_units = params.D**2 * (j - j_bar) / (var_idx**2 * grid.dx**3)

    assert np.allclose(index_units, physical, rtol=1e-12, atol=1e-14)


def test_fd_log_gradient_linear_density():
    grid = qf.make_grid(-20.0, 0.5, 81)
    s = 0.37
    ln_rho = s * grid.positions
    H = qf.fd_log_gradient(ln_rho, grid)
    assert np.allclose(H[1:-1], s, rtol=1e-12)
    assert H[0] == 0.0 and H[-1] == 0.0


def test_fd_log_gradient_uniform_and_packet():
    params = default_params()
    grid = default_grid()
    assert np.all(qf.fd_log_gradient(np.zeros(grid.n), grid) == 0.0)
    state = qf.init_coherent_state(params, grid, 0.0)
    H = qf.fd_log_gradient(state.ln_rho, grid)
    expected = -(params.omega / params.D) * (grid.positions - params.a)
    assert np.allclose(H[1:-1], expected[1:-1], atol=1e-10)


def test_fd_quantum_potential_exponential_density():
    params = default_params()
    grid = qf.make_grid(-48.0, 1.0, 97)
    b = 0.21
    ln_rho = b * grid.positions
    H = qf.fd_log_gradient(ln_rho, grid)
    Q = qf.fd_quantum_potential(H, grid, params)
    assert np.allclose(Q[2:-2], -params.D**2 * b**2 / 2, rtol=1e-10)


def test_fd_quantum_potential_uniform_and_packet_center():
    params = default_params()
    grid = default_grid()
    H0 = qf.fd_log_gradient(np.zeros(grid.n), grid)
    assert np.all(qf.fd_quantum_potential(H0, grid, params) == 0.0)
    state = qf.init_coherent_state(params, grid, 0.0)
    Q = qf.fd_quantum_potential(qf.fd_log_gradient(state.ln_rho, grid), grid, params)
    q_at_center = np.interp(params.a, grid.positions, Q)
    assert q_at_center == pytest.approx(params.D * params.omega, rel=1e-9)


def test_fd_quantum_force_matches_gaussian_fit_on_log_quadratic():
    # the full stencil chain is exact on quadratics, so the two estimators
    # coincide up to the moment-measurement tail error
    params = default_params()
    grid = default_grid()
    state = log_quadratic_state(grid, 3.0, 11.0)
    f_fd = qf.fd_quantum_force(state.ln_rho, grid, params)
    f_gauss = qf.gaussian_fit_force(state.ln_rho, grid, params)
    core = np.abs(grid.positions - 3.0) <= 3 * 11.0
    scale = np.max(np.abs(f_gauss[core]))
    assert np.max(np.abs(f_fd[core] - f_gauss[core])) <= 1e-8 * scale


def test_fd_quantum_force_exponential_density_is_zero():
    params = default_params()
    grid = qf.make_grid(-48.0, 1.0, 97)
    ln_rho = -0.15 * grid.positions
    F = qf.fd_quantum_force(ln_rho, grid, params)
    assert np.allclose(F[3:-3], 0.0, atol=1e-12)
    assert np.all(F[:3] == 0.0) and np.all(F[-3:] == 0.0)


def test_fd_quantum_force_uniform_density_is_zero():
    params = default_params()
    grid = default_grid()
    F = qf.fd_quantum_force(np.zeros(grid.n), grid, params)
    assert np.all(F == 0.0)


def test_fd_quantum_force_needs_seven_points():
    params = default_params()
    # the grid refuses itself before the stencil can be applied to it
    with pytest.raises(ValueError, match="need at least 7 grid points"):
        qf.fd_quantum_force(np.zeros(5), qf.SpatialGrid(0.0, 1.0, 5), params)


def test_estimator_equivalence_on_random_log_quadratics():
    # the two estimators agree within 1% over the 3-sigma core on any
    # log-quadratic density; in practice the agreement is at roundoff level
    params = qf.PhysicalParams(D=25.0, omega=0.1)
    grid = qf.make_grid(-100.0, 1.0, 200)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        sigma = rng.uniform(4.0, 10.0)
        center = rng.uniform(-20.0, 20.0)
        amp = rng.uniform(-1.0, 1.0)
        state = log_quadratic_state(grid, center, sigma, amp)
        f_fd = qf.fd_quantum_force(state.ln_rho, grid, params)
        f_gauss = qf.gaussian_fit_force(state.ln_rho, grid, params)
        core = np.abs(grid.positions - center) <= 3 * sigma
        scale = np.max(np.abs(f_gauss[core]))
        worst = max(worst, np.max(np.abs(f_fd[core] - f_gauss[core])) / scale)
    assert worst <= 0.01


def _cosine_log_density_force(x, center, sigma, eps, q, D):
    """Closed-form F_Q = D^2 (L''' + L'' L') for ln rho = -(u^2/2 sigma^2) + eps cos(q u)."""
    u = x - center
    L1 = -u / sigma**2 - eps * q * np.sin(q * u)
    L2 = -1.0 / sigma**2 - eps * q**2 * np.cos(q * u)
    L3 = eps * q**3 * np.sin(q * u)
    return D**2 * (L3 + L2 * L1)


def test_fd_quantum_force_second_order_convergence():
    # on a non-quadratic log-density the stencil error is O(dx^2): halving
    # dx must cut it by ~4
    center, sigma, eps, q, D = 3.0, 8.0, 0.05, 0.7, 25.0
    params = qf.PhysicalParams(D=D, omega=0.1)

    def stencil_error(dx):
        grid = qf.make_grid(-100.0, dx, int(round(200 / dx)))
        x = grid.positions
        ln_rho = -((x - center) ** 2) / (2 * sigma**2) + eps * np.cos(q * (x - center))
        F = qf.fd_quantum_force(ln_rho, grid, params)
        exact = _cosine_log_density_force(x, center, sigma, eps, q, D)
        core = np.abs(x - center) <= 3 * sigma
        return np.max(np.abs(F[core] - exact[core]))

    ratio = stencil_error(1.0) / stencil_error(0.5)
    assert 3.5 <= ratio <= 4.5


def test_pressure_force_zero_without_kp():
    params = default_params()
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    assert np.all(qf.pressure_force(state.ln_rho, grid, params) == 0.0)


def test_pressure_force_linear_log_density():
    params = default_params(kp=2.5)
    grid = qf.make_grid(-48.0, 1.0, 97)
    s = 0.4
    ln_rho = s * grid.positions
    F = qf.pressure_force(ln_rho, grid, params)
    assert np.allclose(F[1:-1], -params.kp * s, rtol=1e-12)
    assert F[0] == 0.0 and F[-1] == 0.0


def test_pressure_force_spreads_the_packet():
    params = default_params(kp=1.0)
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    F = qf.pressure_force(state.ln_rho, grid, params)
    x = grid.positions
    expected = params.kp * (params.omega / params.D) * (x - params.a)
    assert np.allclose(F[1:-1], expected[1:-1], atol=1e-10)


def test_external_force_values():
    params = default_params()
    grid = qf.make_grid(-10.0, 1.0, 21)
    F = qf.external_force(grid, params)
    assert F[10] == 0.0  # x = 0
    assert np.interp(params.a, grid.positions, F) == pytest.approx(-params.omega**2 * params.a)
    doubled = qf.PhysicalParams(D=params.D, omega=2 * params.omega, a=params.a)
    assert np.allclose(qf.external_force(grid, doubled), 4.0 * F)


def test_external_force_is_built_once_per_grid_and_params_and_read_only():
    params, grid = default_params(), default_grid()
    F = qf.external_force(grid, params)
    assert qf.external_force(default_grid(), default_params()) is F
    assert not F.flags.writeable


def test_rigid_transport_identity():
    # trap + gaussian-fit quantum force on the exact packet is uniform,
    # equal to -omega^2 * mean
    params = default_params()
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    total = qf.external_force(grid, params) + qf.gaussian_fit_force(state.ln_rho, grid, params)
    m = qf.moments(state.ln_rho, grid)
    assert np.allclose(total, -params.omega**2 * m.mean, atol=1e-6)


def test_force_field_total():
    ext = np.array([1.0, 2.0])
    quantum = np.array([0.5, -1.0])
    press = np.array([0.0, 0.25])
    field = qf.ForceField(external=ext, quantum=quantum, pressure=press)
    assert np.allclose(field.total, [1.5, 1.25])
    # without pressure the total is the other two parts alone
    field = qf.ForceField(external=ext, quantum=quantum, pressure=None)
    assert np.array_equal(field.total, [1.5, 1.0])
