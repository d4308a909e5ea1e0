"""Diagnostics: error series, energy estimate, smoothness, L2 density distance."""

import math

import numpy as np
import pytest

import qfluid as qf
from qfluid.diagnostics import RunRecord
from qfluid.presets import default_grid, default_params


def synthetic_record(params, grid, t, mean, var):
    n = len(t)
    return RunRecord(
        params=params,
        grid=grid,
        t=np.asarray(t, dtype=float),
        mean=np.asarray(mean, dtype=float),
        var=np.asarray(var, dtype=float),
        mass=np.ones(n),
        max_abs_V=np.zeros(n),
        center_energy=np.zeros(n),
        smoothness_series=np.zeros(n),
        status=["ok"] * n,
        snapshots={},
        final_status="ok",
    )


def test_center_error_on_exact_trajectory():
    params = default_params()
    grid = default_grid()
    t = np.arange(0.0, 30.0)
    rec = synthetic_record(params, grid, t, params.a * np.cos(params.omega * t), np.full(len(t), 256.0))
    assert np.allclose(rec.center_error, 0.0, atol=1e-14)
    err = rec.dispersion_error
    assert np.allclose(err, np.abs(256.0 / params.equilibrium_sigma2() - 1.0), atol=1e-12)


def test_center_error_absolute_when_amplitude_zero():
    params = qf.PhysicalParams(D=25.0, omega=0.1, a=0.0)
    grid = default_grid()
    rec = synthetic_record(params, grid, [0.0, 1.0], [0.3, -0.2], [250.0, 250.0])
    assert np.allclose(rec.center_error, [0.3, 0.2])


def test_center_energy_estimate_on_exact_packet():
    params = default_params()
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    e = qf.center_energy_estimate(state, grid, params)
    e_c = qf.OracleWave(params).center_energy()
    assert e == pytest.approx(e_c, rel=0.02)
    assert e == pytest.approx(e_c, rel=1e-3)  # actual accuracy is much tighter


def test_center_energy_estimate_zero_amplitude():
    base = default_params()
    params = qf.PhysicalParams(D=base.D, omega=base.omega, a=0.0)
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    e = qf.center_energy_estimate(state, grid, params)
    assert e == pytest.approx(params.D * params.omega, rel=0.02)
    # doubling D doubles the zero-point estimate (wider grid: the packet
    # width grows with sqrt(D))
    wide = qf.make_grid(-128.0, 1.0, 256)
    params2 = qf.PhysicalParams(D=2 * base.D, omega=base.omega, a=0.0)
    e1 = qf.center_energy_estimate(qf.init_coherent_state(params, wide, 0.0), wide, params)
    e2 = qf.center_energy_estimate(qf.init_coherent_state(params2, wide, 0.0), wide, params2)
    assert e2 == pytest.approx(2.0 * e1, rel=1e-6)


def _full_grid_center_energy(state, grid, params):
    """center_energy_estimate's formula with the stencil chain run over the
    whole grid."""
    m = qf.moments(state.ln_rho, grid)
    x = grid.positions
    Q = qf.fd_quantum_potential(qf.fd_log_gradient(state.ln_rho, grid), grid, params)
    q_at_mean = float(np.interp(m.mean, x[2:-2], Q[2:-2]))
    v_at_mean = float(np.interp(m.mean, x, state.V))
    return 0.5 * v_at_mean**2 + 0.5 * params.omega**2 * m.mean**2 + q_at_mean


@pytest.mark.parametrize("n", [7, 8, 192])
def test_center_energy_estimate_matches_the_full_grid_stencil_bit_for_bit(n):
    rng = np.random.default_rng(n)
    params = qf.PhysicalParams(D=1.5, omega=0.3)
    grid = qf.make_grid(-float(n // 2), 1.0, n)
    x = grid.positions
    # seeded noisy packets centered on every node, between nodes, and off
    # both ends of the grid, so the mean also falls outside the stencil
    # band x[2:-2]; plus three-cell plateaus whose mean is exactly a node
    packets = []
    centers = np.concatenate((x, x + 0.37, rng.uniform(x[0] - 3.0, x[-1] + 3.0, 60)))
    for center in centers:
        for width in (0.6, 1.5, n / 4.0):
            for noise in (0.0, 0.05):
                packets.append(-((x - center) ** 2) / (2 * width**2) + noise * rng.standard_normal(n))
    for k in range(1, n - 1):
        plateau = np.full(n, -1000.0)
        plateau[k - 1 : k + 2] = 0.0
        packets.append(plateau)
    seen = {"below_band": 0, "above_band": 0, "on_node": 0, "between_nodes": 0}
    for ln_rho in packets:
        state = qf.FluidState(0.0, ln_rho, rng.standard_normal(n))
        try:
            expected = _full_grid_center_energy(state, grid, params)
        except qf.DegenerateDensityError:
            continue
        assert qf.center_energy_estimate(state, grid, params) == expected
        mean = qf.moments(state.ln_rho, grid).mean
        if mean < x[2]:
            seen["below_band"] += 1
        elif mean > x[-3]:
            seen["above_band"] += 1
        elif mean in x:
            seen["on_node"] += 1
        else:
            seen["between_nodes"] += 1
    assert min(seen.values()) > 0, seen


def _boolean_core_smoothness(ln_rho, grid):
    """smoothness's formula with the core picked by a boolean mask over the
    whole interior."""
    m = qf.moments(ln_rho, grid)
    x = grid.positions
    d2 = ln_rho[2:] - 2 * ln_rho[1:-1] + ln_rho[:-2]
    core = np.abs(x[1:-1] - m.mean) <= 3.0 * math.sqrt(m.var)
    if not core.any():
        return float("nan")
    return float((d2[core] ** 2).mean())


@pytest.mark.parametrize("n", [7, 8, 192])
def test_smoothness_matches_the_boolean_core_bit_for_bit(n):
    rng = np.random.default_rng(n)
    grid = qf.make_grid(-float(n // 2), 1.0, n)
    x = grid.positions
    # seeded noisy packets centered on every node, between nodes, and off
    # both ends of the grid (0.6 cells off, a packet of width 0.6 leaves its
    # core between the end node and the first interior node: empty); plus
    # two-cell plateaus, whose core ends fall exactly on nodes
    packets = []
    ends = [x[0] - 0.6, x[-1] + 0.6]
    centers = np.concatenate((x, x + 0.37, ends, rng.uniform(x[0] - 3.0, x[-1] + 3.0, 60)))
    for center in centers:
        for width in (0.6, 1.5, n / 4.0):
            for noise in (0.0, 0.05):
                packets.append(-((x - center) ** 2) / (2 * width**2) + noise * rng.standard_normal(n))
    for k in range(n - 1):
        plateau = np.full(n, -1000.0)
        plateau[k : k + 2] = 0.0
        packets.append(plateau)
    seen = {"clipped_left": 0, "clipped_right": 0, "inside": 0, "empty": 0}
    for ln_rho in packets:
        try:
            expected = _boolean_core_smoothness(ln_rho, grid)
        except qf.DegenerateDensityError:
            continue
        got = qf.smoothness(ln_rho, grid)
        if math.isnan(expected):
            assert math.isnan(got)
            seen["empty"] += 1
            continue
        assert got == expected
        m = qf.moments(ln_rho, grid)
        r = 3.0 * math.sqrt(m.var)
        if m.mean - r < x[1]:
            seen["clipped_left"] += 1
        if m.mean + r > x[-2]:
            seen["clipped_right"] += 1
        if x[1] <= m.mean - r and m.mean + r <= x[-2]:
            seen["inside"] += 1
    assert min(seen.values()) > 0, seen


def test_smoothness_core_ends_follow_the_mask_where_rounding_moves_them(monkeypatch):
    # 3 sigma set to a node's distance from the mean, give or take an ulp:
    # mean -/+ 3 sigma then often rounds to the other side of that node
    # than |x - mean| <= 3 sigma puts it, and the slice ends must follow
    # the mask
    rng = np.random.default_rng(3)
    moved = 0
    for _ in range(2000):
        n = int(rng.integers(7, 40))
        grid = qf.make_grid(rng.uniform(-100.0, 100.0), rng.uniform(0.01, 3.0), n)
        x = grid.positions
        mean = rng.uniform(x[0] - 2 * grid.dx, x[-1] + 2 * grid.dx)
        r = abs(x[rng.integers(0, n)] - mean) * (1.0 + rng.choice([-1, 0, 1]) * 2.0**-52)
        m = qf.Moments(mean, (r / 3.0) ** 2)
        monkeypatch.setattr("qfluid.diagnostics.moments", lambda ln_rho, grid: m)
        monkeypatch.setattr(qf, "moments", lambda ln_rho, grid: m)
        ln_rho = rng.standard_normal(n)
        expected = _boolean_core_smoothness(ln_rho, grid)
        got = qf.smoothness(ln_rho, grid)
        assert got == expected or (math.isnan(got) and math.isnan(expected))
        r = 3.0 * math.sqrt(m.var)
        mask = np.flatnonzero(np.abs(x - mean) <= r)
        if len(mask) and (x.searchsorted(mean - r) != mask[0] or x.searchsorted(mean + r, "right") != mask[-1] + 1):
            moved += 1
    assert moved > 100


def test_smoothness_of_exact_packet():
    # second difference of the quadratic ln rho is the constant -dx^2/sigma^2
    params = default_params()
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    expected = (grid.dx**2 * params.omega / params.D) ** 2
    assert qf.smoothness(state.ln_rho, grid) == pytest.approx(expected, rel=1e-9)


def test_smoothness_increases_with_noise():
    params = default_params()
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    before = qf.smoothness(state.ln_rho, grid)
    noisy = state.ln_rho + np.random.default_rng(1).uniform(0.0, 1.0, size=grid.n)
    assert qf.smoothness(noisy, grid) > 100 * before


def test_l2_distance_identical_records():
    grid = default_grid()
    rho = np.exp(-grid.positions**2 / 512.0)
    assert qf.density_distance(rho, rho.copy(), grid.dx) == 0.0


def test_l2_distance_shifted_gaussian():
    # independent oracle: direct grid quadrature of two unit-mass Gaussians
    # (sigma = 4 dx) shifted by one cell; the analytic value is
    # sqrt(2 (1 - exp(-dx^2/(4 sigma^2)))) = 0.17609
    grid = qf.make_grid(-60.0, 1.0, 121)
    x = grid.positions
    sigma = 4.0
    g0 = np.exp(-(x**2) / (2 * sigma**2)) / math.sqrt(2 * math.pi * sigma**2)
    g1 = np.exp(-((x - 1.0) ** 2) / (2 * sigma**2)) / math.sqrt(2 * math.pi * sigma**2)
    oracle = np.sqrt(np.sum((g0 - g1) ** 2) * grid.dx) / np.sqrt(np.sum(g0**2) * grid.dx)
    analytic = math.sqrt(2.0 * (1.0 - math.exp(-1.0 / (4 * sigma**2))))
    assert oracle == pytest.approx(analytic, rel=1e-12)

    dist = qf.density_distance(g0, g1, grid.dx)
    assert dist == pytest.approx(oracle, rel=1e-12)
    assert dist == pytest.approx(0.176, abs=0.002)


def test_diagnostics_are_pure():
    params = default_params()
    grid = default_grid()
    rec = qf.run(qf.RunConfig(steps=10), params, grid)
    e1 = rec.center_error
    e2 = rec.center_error
    assert np.array_equal(e1, e2)
    d1 = rec.dispersion_error
    d2 = rec.dispersion_error
    assert np.array_equal(d1, d2)
