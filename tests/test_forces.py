"""Force decomposition: moments, both quantum estimators, pressure, trap."""

import math

import numpy as np
import pytest

import qfluid as qf
from qfluid.core import FluidState
from qfluid.forces import _log_gradient, _quantum_potential
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


EPS = np.finfo(float).eps
# k of the bounds k eps kappa below; the largest k measured was 23, for the
# variance on compare-fine's 12288 cells
MOMENTS_K = 64
MOMENT_GRIDS = {
    "+-96": qf.make_grid(-96.0, 1.0, 192),
    "+-192": qf.make_grid(-192.0, 1.0, 384),
    "compare-fine": qf.make_grid(-96.0, 1 / 64, 12288),
    "off-origin": qf.make_grid(1e4, 1.0, 192),
}


def two_pass_moments(ln_rho, grid):
    """Mean and var of the weights ``moments`` builds, summed in extended
    precision, the variance about the mean."""
    w = np.exp(ln_rho - np.maximum.reduce(ln_rho)).astype(np.longdouble)
    x = grid.positions.astype(np.longdouble)
    total = w.sum()
    mean = (w * x).sum() / total
    return mean, (w * (x - mean) ** 2).sum() / total


def assert_moments_within_bound(m, mean, var, grid):
    """|mean error| <= k eps (|c| + rms(x - c)) and |var error| <= k eps
    kappa var, with c the grid midpoint and kappa = 1 + (mean - c)^2/var =
    rms(x - c)^2/var, the factor by which the shifted variance magnifies
    the rounding of its sums."""
    c = grid.x0 + (grid.n - 1) * grid.dx / 2
    kappa = 1 + (mean - c) ** 2 / var
    assert abs(m.mean - mean) <= MOMENTS_K * EPS * (abs(c) + np.sqrt(var * kappa))
    assert abs(m.var - var) <= MOMENTS_K * EPS * kappa * var


@pytest.mark.parametrize("name", MOMENT_GRIDS)
def test_moments_err_by_at_most_k_eps_kappa_anywhere_on_the_grid(name):
    # packets centred on and between nodes from edge to edge, 0.2 cells to a
    # quarter of the grid wide; kappa reaches 1.7e9 for the narrow ones at
    # compare-fine's edges.  Sums about the origin fail this on the
    # off-origin grid, whose packets sit 1e4 from it
    grid = MOMENT_GRIDS[name]
    x = grid.positions
    nodes = np.linspace(grid.x0, grid.x_end, 17)
    for center in np.concatenate([nodes, nodes[:-1] + 0.37 * grid.dx]):
        for width in np.geomspace(0.2 * grid.dx, (grid.n - 1) * grid.dx / 4, 9):
            ln_rho = -0.5 * ((x - center) / width) ** 2
            mean, var = two_pass_moments(ln_rho, grid)
            if var < (grid.dx / 10.0) ** 2:
                with pytest.raises(qf.DegenerateDensityError):
                    qf.moments(ln_rho, grid)
                continue
            assert_moments_within_bound(qf.moments(ln_rho, grid), mean, var, grid)


def test_moving_the_grid_and_the_packet_by_L_moves_the_mean_by_L():
    near, far = MOMENT_GRIDS["+-96"], MOMENT_GRIDS["off-origin"]
    L = far.x0 - near.x0
    index = np.arange(near.n)
    for center in (0.37, 50.37, 95.5, 190.63):
        for width in (0.2, 3.0, 16.0, 47.75):
            ln_rho = -0.5 * ((index - center) / width) ** 2
            m = qf.moments(ln_rho, near)
            assert_moments_within_bound(qf.moments(ln_rho, far), m.mean + L, m.var, far)


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


# the stencil chain's private stages: _log_gradient gives H on cells
# 1..n-2 and _quantum_potential Q on cells 2..n-3


def test_log_gradient_linear_density():
    grid = qf.make_grid(-20.0, 0.5, 81)
    s = 0.37
    H = _log_gradient(s * grid.positions, grid.dx)
    assert len(H) == grid.n - 2
    assert np.allclose(H, s, rtol=1e-12)


def test_log_gradient_uniform_and_packet():
    params = default_params()
    grid = default_grid()
    assert np.all(_log_gradient(np.zeros(grid.n), grid.dx) == 0.0)
    state = qf.init_coherent_state(params, grid, 0.0)
    H = _log_gradient(state.ln_rho, grid.dx)
    expected = -(params.omega / params.D) * (grid.positions - params.a)
    assert np.allclose(H, expected[1:-1], atol=1e-10)


def test_quantum_potential_exponential_density():
    params = default_params()
    grid = qf.make_grid(-48.0, 1.0, 97)
    b = 0.21
    Q = _quantum_potential(_log_gradient(b * grid.positions, grid.dx), grid.dx, params.D)
    assert len(Q) == grid.n - 4
    assert np.allclose(Q, -params.D**2 * b**2 / 2, rtol=1e-10)


def test_quantum_potential_uniform_and_packet_center():
    params = default_params()
    grid = default_grid()
    H0 = _log_gradient(np.zeros(grid.n), grid.dx)
    assert np.all(_quantum_potential(H0, grid.dx, params.D) == 0.0)
    state = qf.init_coherent_state(params, grid, 0.0)
    Q = _quantum_potential(_log_gradient(state.ln_rho, grid.dx), grid.dx, params.D)
    q_at_center = np.interp(params.a, grid.positions[2:-2], Q)
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
    # on every cell: the edge bands extrapolate the interior's zero
    params = default_params()
    grid = qf.make_grid(-48.0, 1.0, 97)
    ln_rho = -0.15 * grid.positions
    F = qf.fd_quantum_force(ln_rho, grid, params)
    assert np.allclose(F, 0.0, atol=1e-12)


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

