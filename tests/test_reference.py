"""Crank-Nicolson wave solver and the fluid-to-wave conversion."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import drain
from scipy.linalg import solve_banded

import qfluid as qf
import qfluid.reference as reference
from qfluid.core import FluidState
from qfluid.presets import default_grid, default_params


def wide_grid():
    # tails clear the Dirichlet walls so norm checks see only the scheme
    return qf.make_grid(-128.0, 1.0, 256)


def packet_psi(params, grid):
    """psi of the exact coherent packet at t = 0."""
    return qf.fluid_to_wave(qf.init_coherent_state(params, grid), grid, params)


def norm2(psi, grid):
    return float(np.sum(np.abs(psi) ** 2) * grid.dx)


def test_cn_step_uniform_wave_is_stationary():
    # vanishing potential and flat psi: nothing moves away from the walls
    params = qf.PhysicalParams(D=1.0, omega=1e-12)
    grid = qf.make_grid(-48.0, 1.0, 97)
    psi = np.ones(97, dtype=complex)
    op = qf.cn_operator(qf.RunConfig(dt=0.5), params, grid)
    out = qf.cn_step(psi, op, np.abs(psi) ** 2)
    # the implicit solve feels the Dirichlet walls with fast spatial
    # decay; twenty cells in, the flat wave is untouched
    interior = slice(20, -20)
    assert np.max(np.abs(out[interior] - 1.0)) < 1e-10


def test_cn_operator_rejects_nonpositive_dt():
    params = default_params()
    grid = wide_grid()
    # the config refuses the step before an operator is built
    with pytest.raises(ValueError, match="dt must be positive"):
        qf.cn_operator(qf.RunConfig(dt=-1.0), params, grid)
    # the tridiagonal solve does not check for NaN; the config does
    with pytest.raises(ValueError, match="dt must be finite"):
        qf.cn_operator(qf.RunConfig(dt=math.nan), params, grid)


@pytest.mark.parametrize(
    "kp, dt",
    [
        pytest.param(0.0, 1.0, id="without-pressure"),
        # the logarithmic term enters as a phase, so each sub-step is unitary
        pytest.param(1.0, 0.5, id="with-pressure"),
    ],
)
def test_cn_preserves_norm(kp, dt):
    params = default_params(kp=kp)
    grid = wide_grid()
    items, status = drain(qf.wave_trajectory(qf.RunConfig(dt=dt, steps=64), params, grid, packet_psi(params, grid)))
    norms = [norm2(psi, grid) for _, psi, _ in items]
    assert status == "ok"
    assert len(norms) == 65
    assert np.max(np.abs(np.array(norms) / norms[0] - 1.0)) <= 1e-10


def apply_h(psi, grid, params):
    """H psi on the interior without pressure, -D psi_xx + phi/(2D) psi,
    written out from the equation."""
    phi = 0.5 * params.omega**2 * grid.positions**2
    laplacian = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / grid.dx**2
    return -params.D * laplacian + phi[1:-1] / (2.0 * params.D) * psi[1:-1]


def pressure_half_phase(psi, params, dt):
    """psi after a time dt/2 of i psi_t = (w/2D) psi, w = kp ln|psi|^2:
    |psi| stays, so the flow is the phase exp(-i (dt/2) w/(2D)), and where
    psi = 0 there is no phase.  A negative dt undoes it."""
    rho = np.abs(psi) ** 2
    w = np.zeros_like(rho)
    held = rho > 0.0
    w[held] = params.kp * np.log(rho[held])
    return psi * np.exp(-0.5j * dt * w / (2.0 * params.D))


def split_step_residual(psi, new, grid, params, dt):
    """|(I + zH) b - (I - zH) a|, z = i dt/2 and H without pressure, for a
    the half-phased psi and b the new psi with its half phase undone: 0 to
    round-off when new is the half phase, the Crank-Nicolson step and the
    half phase."""
    z = 0.5j * dt
    a = pressure_half_phase(psi, params, dt)
    b = pressure_half_phase(new, params, -dt)
    return np.linalg.norm(b[1:-1] + z * apply_h(b, grid, params) - a[1:-1] + z * apply_h(a, grid, params))


@pytest.mark.parametrize("half_width", [96, 128, 192])
@pytest.mark.parametrize("kp", [0.0, 1.0])
def test_cn_step_solves_its_own_equation(kp, half_width):
    # each step satisfies (I + zH) P_{k+1}^-1 psi_{k+1} = (I - zH) P_k psi_k
    # to round-off, z = i dt/2 and P_k the half phase from |psi_k|^2 (1 at
    # kp = 0); a half phase from the wrong step's density fails this.  The
    # wider grids hold tail cells below 1e-14 of the peak, which must take
    # the exact phase too: a floored ln|psi|^2 misses by 3e-10 of |psi|
    params = default_params(kp=kp)
    grid = qf.make_grid(-half_width, 1.0, 2 * half_width)
    dt = 0.5
    op = qf.cn_operator(qf.RunConfig(dt=dt), params, grid)
    psi = qf.fluid_to_wave(qf.init_coherent_state(params, grid, 0.0), grid, params)
    for _ in range(4):
        new = qf.cn_step(psi, op, np.abs(psi) ** 2)
        assert split_step_residual(psi, new, grid, params, dt) <= 1e-12 * np.linalg.norm(psi)
        assert new[0] == 0.0 and new[-1] == 0.0
        psi = new


@pytest.mark.parametrize("kp", [pytest.param(0.0, id="kp=0"), pytest.param(1.0, id="kp=1")])
def test_cn_step_couples_the_pinned_end_cells(kp):
    # a random wave with O(1) end cells: the step's right-hand side reads
    # the half-phased psi_0 and psi_{n-1} through the first and last
    # interior rows of (I - zH) psi, and the new ends are pinned at 0
    params = default_params(kp=kp)
    grid = qf.make_grid(-8.0, 1.0, 17)
    dt = 0.5
    op = qf.cn_operator(qf.RunConfig(dt=dt), params, grid)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    psi[0], psi[-1] = 1.0 - 0.5j, -0.75 + 1.0j
    new = qf.cn_step(psi, op, np.abs(psi) ** 2)
    assert split_step_residual(psi, new, grid, params, dt) <= 1e-12 * np.linalg.norm(psi)
    assert new[0] == 0.0 and new[-1] == 0.0


def cn_matrix(params, grid, dt):
    """The off-diagonal entry and the diagonal of I + zH over the interior,
    z = i dt/2 and H without pressure, written out from the equation."""
    z = 0.5j * dt
    off = -params.D / grid.dx**2
    phi = 0.5 * params.omega**2 * grid.positions[1:-1] ** 2
    return z * off, 1.0 + z * (-2.0 * off + phi / (2.0 * params.D))


def pivoted_solve(e, d, r):
    """LAPACK's banded solve, with partial pivoting, of the symmetric
    tridiagonal system with diagonal d and every off-diagonal entry e."""
    ab = np.zeros((3, d.size), dtype=complex)
    ab[0, 1:] = e
    ab[1] = d
    ab[2, :-1] = e
    return solve_banded((1, 1), ab, r)


def random_wave(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def assert_solves(plan, e, d, r):
    x = r.copy()
    reference._solve(plan, x)
    expected = pivoted_solve(e, d, r)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


# interior sizes 5, 6, 32, 33, 64, 65 and 128 sit on both sides of the dense
# base and of a halving of it, with odd and even counts at every level; 12286
# is compare-fine's.  A dense reference of that one would take 2.4 GB, so the
# reference is a banded solve
@pytest.mark.parametrize("n", [7, 8, 34, 35, 66, 67, 130, 12288])
def test_cyclic_reduction_matches_a_pivoted_solve(n):
    # dx = dt = 1 up to the default grid, and compare-fine's 1/64 on its grid
    dx = min(1.0, 192 / n)
    params, grid = default_params(), default_grid(dx=dx, n=n)
    op = qf.cn_operator(qf.RunConfig(dt=dx), params, grid)
    e, d = cn_matrix(params, grid, dx)
    assert_solves(op.plan, e, d, random_wave(np.random.default_rng(n), n - 2))


@pytest.mark.parametrize("name", ["fig4", "fig5", "fig7"])
def test_cyclic_reduction_matches_a_pivoted_solve_along_a_pressure_run(name):
    # a pressure run solves every step with the one plan of its operator:
    # the reduction of I + zH without pressure, at the preset's own dx and dt
    params, config, grid = qf.preset(name)
    assert params.kp > 0.0
    e, d = cn_matrix(params, grid, config.dt)
    op = qf.cn_operator(config, params, grid)
    assert_solves(op.plan, e, d, random_wave(np.random.default_rng(3), grid.n - 2))


def test_cyclic_reduction_needs_no_pivoting_where_rows_are_not_diagonally_dominant():
    # (phi + w)/2D down to -99, and on every other row near 2 off = -1,
    # which cancels the -2 off of H's diagonal, so that |d_j| < 2|e| there:
    # still no pivot vanishes, because I + zH has Hermitian part I
    rng = np.random.default_rng(11)
    dt, off = 4.0, -0.5
    z = 0.5j * dt
    u = rng.uniform(-99.0, 1.0, size=200)
    u[::2] = 2.0 * off + rng.uniform(-0.25, 0.25, size=100)
    e, d = z * off, 1.0 + z * (-2.0 * off + u)
    assert np.mean(np.abs(d) < 2.0 * abs(e)) >= 0.4
    assert_solves(reference._reduce(e, d), e, d, random_wave(rng, 200))


@pytest.mark.parametrize("kp", [pytest.param(0.0, id="kp=0"), pytest.param(1.0, id="kp=1")])
def test_cn_step_agrees_with_a_lapack_cayley_step(kp):
    # the half phase, 2 (I + zH)^-1 b - psi_int with b carrying the end
    # cells, solved by LAPACK's banded solve, and the half phase
    params, grid = default_params(kp=kp), default_grid()
    dt = 0.5
    rng = np.random.default_rng(17)
    psi = random_wave(rng, grid.n)
    rho = np.abs(psi) ** 2
    half = pressure_half_phase(psi, params, dt)
    e, d = cn_matrix(params, grid, dt)
    b = half[1:-1].copy()
    b[0] -= 0.5 * e * half[0]
    b[-1] -= 0.5 * e * half[-1]
    expected = np.zeros(grid.n, dtype=complex)
    expected[1:-1] = 2.0 * pivoted_solve(e, d, b) - half[1:-1]
    expected = pressure_half_phase(expected, params, dt)
    new = qf.cn_step(psi, qf.cn_operator(qf.RunConfig(dt=dt), params, grid), rho)
    assert np.linalg.norm(new - expected) <= 1e-12 * np.linalg.norm(expected)


def test_cn_is_second_order_in_time_with_pressure():
    # relative L2 of rho at T = 16 between successive halvings of dt; on
    # +-192 the breathing tails stay clear of the walls, which on +-96
    # stall the ladder
    params, grid = default_params(kp=1.0), qf.make_grid(-192.0, 0.5, 768)
    psi0 = packet_psi(params, grid)
    finals = []
    for dt in (1.0, 0.5, 0.25):
        *_, (_, _, rho) = qf.wave_trajectory(qf.RunConfig(dt=dt, steps=round(16 / dt)), params, grid, psi0)
        finals.append(rho)
    errors = [np.linalg.norm(c - f) / np.linalg.norm(f) for c, f in zip(finals, finals[1:])]
    assert math.log2(errors[0] / errors[1]) >= 1.9


def test_a_pressure_run_reduces_its_system_once(monkeypatch):
    real, calls = reference._reduce, []

    def reduce(e, d):
        calls.append(None)
        return real(e, d)

    monkeypatch.setattr(reference, "_reduce", reduce)
    params, grid = default_params(kp=1.0), default_grid()
    waves = qf.wave_trajectory(qf.RunConfig(dt=0.5, steps=10), params, grid, packet_psi(params, grid))
    assert [step for step, *_ in waves] == list(range(11))
    assert len(calls) == 1


def wave_moments(params, grid, dt, steps):
    """The reference's moments at every step, from ln |psi|^2 (-inf, so no
    weight, at the pinned ends); asserts the run stays finite."""
    waves = qf.wave_trajectory(qf.RunConfig(dt=dt, steps=steps), params, grid, packet_psi(params, grid))
    means, variances = [], []
    for _, _, rho in waves:
        with np.errstate(divide="ignore"):
            ln_rho = np.log(rho)
        m = qf.moments(ln_rho, grid)
        means.append(m.mean)
        variances.append(m.var)
    assert len(means) == steps + 1
    return np.array(means), np.array(variances)


def test_cn_center_returns_after_one_period():
    params = default_params()
    grid = default_grid()
    mean, var = wave_moments(params, grid, 1.0, 64)
    assert mean[-1] == pytest.approx(params.a, abs=0.01 * params.a)
    assert var[-1] == pytest.approx(params.equilibrium_sigma2(), rel=0.01)


def two_packet_psi(params, grid):
    """psi of a lopsided two-packet start at rest, from its fluid fields:
    rho ~ exp(-(x+10)^2/2 sigma^2) + exp(-(x-14)^2/2 sigma^2)/2, V = 0."""
    x, s2 = grid.positions, params.equilibrium_sigma2()
    rho = np.exp(-((x + 10.0) ** 2) / (2 * s2)) + 0.5 * np.exp(-((x - 14.0) ** 2) / (2 * s2))
    return qf.fluid_to_wave(FluidState(0.0, np.log(rho), np.zeros(grid.n)), grid, params)


@pytest.mark.parametrize("kp", [0.0, 1.0])
def test_cn_center_of_a_two_packet_start_rides_the_pendulum_at_second_order(kp):
    # in a harmonic trap the internal forces, quantum and pressure, do no
    # net work on the center of mass (Kohn's theorem), so a start at rest
    # keeps it on X0 cos(omega t) at any kp, whatever the shape.  Max error
    # over T = 32 at dx = dt = 1/k, k = 1, 2, 4: 1.0e-2, 2.6e-3, 7.1e-4 at
    # kp = 0 and 1.3e-2, 3.3e-3, 9.0e-4 at kp = 1
    params = default_params(kp=kp)
    errors = []
    for k in (1, 2, 4):
        grid = default_grid(1.0 / k, 192 * k)
        config = qf.RunConfig(dt=1.0 / k, steps=32 * k)
        x, centers, times = grid.positions, [], []
        for step, _, rho in qf.wave_trajectory(config, params, grid, two_packet_psi(params, grid)):
            centers.append(np.sum(x * rho) / np.sum(rho))
            times.append(step * config.dt)
        pendulum = centers[0] * np.cos(params.omega * np.array(times))
        assert len(centers) == config.steps + 1
        errors.append(np.max(np.abs(np.array(centers) - pendulum)))
    orders = [math.log2(c / f) for c, f in zip(errors, errors[1:])]
    assert min(orders) >= 1.7


def test_wave_trajectory_yields_every_step_and_returns_ok():
    # with pressure, each step's first half phase comes from the rho
    # yielded before it
    params, grid = default_params(kp=1.0), default_grid()
    items, status = drain(qf.wave_trajectory(qf.RunConfig(dt=0.5, steps=10), params, grid, packet_psi(params, grid)))
    assert status == "ok"
    assert len(items) == 11
    for k, (step, psi, rho) in enumerate(items):
        assert step == k
        assert np.array_equal(rho, np.abs(psi) ** 2)


@pytest.mark.parametrize("kp", [0.0, 1.0])
def test_wave_trajectory_ends_at_the_first_nonfinite_step(kp):
    # one NaN interior cell spreads over the whole wave in the first solve
    params, grid = default_params(kp=kp), default_grid()
    psi0 = packet_psi(params, grid)
    psi0[grid.n // 3] = np.nan
    items, status = drain(qf.wave_trajectory(qf.RunConfig(dt=1.0, steps=4), params, grid, psi0))
    assert [step for step, *_ in items] == [0]
    assert status == "diverged_nonfinite"


def test_cn_pressure_drives_oscillatory_spreading():
    # sigma^2 rises under pressure and comes back near its initial value
    # around half a period
    params = default_params(kp=1.0)
    grid = default_grid()
    _, var = wave_moments(params, grid, 0.25, 160)
    ratio = var / var[0]
    assert ratio.max() >= 1.2
    half = int(round(32.0 / 0.25))
    window = np.abs(ratio[half - 12 : half + 13] - 1.0)
    assert window.min() <= 0.15


@pytest.mark.parametrize(
    "bad, field",
    [
        ({"steps": -1}, "steps"),
        ({"steps": 0}, "steps"),
        ({"steps": 2.5}, "steps"),
        ({"dt": 0.0}, "dt"),
        ({"dt": -1.0, "steps": 0}, "dt"),
        ({"dt": math.nan}, "dt"),
        ({"dt": math.inf}, "dt"),
    ],
)
def test_wave_trajectory_refuses_a_config_it_cannot_run(bad, field):
    # the config wave_trajectory takes refuses them before the first step
    params, grid = default_params(), default_grid()
    kwargs = {"dt": 1.0, "steps": 4, **bad}
    with pytest.raises(ValueError, match=field):
        next(qf.wave_trajectory(qf.RunConfig(**kwargs), params, grid, packet_psi(params, grid)))


def test_fluid_to_wave_carries_the_density_and_the_trapezoid_phase():
    # |psi|^2 = rho, phase 0 at the left end, and each cell's phase step is
    # the trapezoid (V_j + V_{j+1}) dx / (4 D) of theta = (1/2D) int V dx
    params = default_params()
    grid = default_grid()
    x = grid.positions
    ln_rho = -((x - 5.0) ** 2) / (2 * 14.0**2)
    V = 0.3 * np.sin(2 * math.pi * x / 100.0)
    psi = qf.fluid_to_wave(FluidState(0.0, ln_rho, V), grid, params)
    np.testing.assert_allclose(np.abs(psi) ** 2, np.exp(ln_rho), rtol=1e-12, atol=0.0)
    assert np.angle(psi[0]) == 0.0
    phase_steps = np.angle(psi[1:] / psi[:-1])
    expected = (V[:-1] + V[1:]) * grid.dx / (4.0 * params.D)
    np.testing.assert_allclose(phase_steps, expected, rtol=0.0, atol=1e-12)


def test_mass_matches_between_solvers():
    params = default_params()
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    psi = qf.fluid_to_wave(state, grid, params)
    assert norm2(psi, grid) == pytest.approx(qf.mass(state.ln_rho, grid), rel=1e-12)


def test_wave_trajectory_starts_from_the_psi_it_is_given():
    # a displaced, narrower packet with a phase ramp: not the coherent state
    params, grid = default_params(), default_grid()
    x = grid.positions
    psi0 = np.exp(-((x + 20.0) ** 2) / (2 * 6.0**2) + 0.2j * x)
    step, psi, rho = next(qf.wave_trajectory(qf.RunConfig(dt=1.0, steps=4), params, grid, psi0))
    assert step == 0
    assert np.array_equal(psi, psi0)
    assert np.array_equal(rho, np.abs(psi0) ** 2)


@pytest.mark.parametrize("size", [191, 193])
def test_wave_trajectory_refuses_a_psi_that_does_not_fit_the_grid(size):
    # before step 0 is yielded, not inside the first step's solve
    params, grid = default_params(), default_grid()
    waves = qf.wave_trajectory(qf.RunConfig(steps=4), params, grid, np.ones(size, dtype=complex))
    with pytest.raises(ValueError, match=f"^psi has {size} values, but the grid has 192 cells$"):
        next(waves)


@pytest.mark.parametrize("name, noise", [("fig1", "none"), ("fig2", "initial"), ("fig3", "measurement")])
def test_cross_check_starts_the_reference_from_the_fluids_step_0(name, noise):
    # every noise mode compare accepts, fig2's noisy start included: the
    # step-0 row compares a state with itself
    params, config, grid = qf.preset(name)
    assert config.noise == noise
    rows, _ = qf.cross_check(replace(config, steps=1), params, grid)
    assert rows[0][:2] == (0, 0.0)
    assert rows[0][2] <= 1e-15


def test_a_grid_whose_dx_squared_is_subnormal_is_refused_before_a_cross_check():
    # D/dx^2 would overflow in the CN operator and end the reference at
    # step 1; a reference that goes non-finite first is covered by
    # test_cross_check_ends_with_a_reference_whose_solve_fails
    with pytest.raises(ValueError, match="too small to square, got dx=1e-160"):
        default_grid(dx=1e-160)


def test_wave_trajectory_ends_on_an_operator_whose_potential_overflows():
    # omega^2 x^2 overflows at |x| = 3 for omega = 1e154: the diagonal of
    # I + zH is nan + inf i, the system is small enough to be inverted whole,
    # and that inverse is singular.  The run ends as non-finite at step 1,
    # silently
    params, grid = qf.PhysicalParams(D=1.0, omega=1e154), qf.make_grid(-3.0, 1.0, 7)
    psi0 = np.exp(-np.arange(-3.0, 4.0) ** 2).astype(complex)
    items, status = drain(qf.wave_trajectory(qf.RunConfig(steps=4), params, grid, psi0))
    assert [step for step, *_ in items] == [0]
    assert status == "diverged_nonfinite"


@pytest.fixture
def solve_fails_from_the_third_step(monkeypatch):
    """The tridiagonal solve returns NaN from its 3rd call on: steps 1 and 2
    solve, step 3 does not."""
    real, calls = reference._solve, []

    def solve(plan, r):
        calls.append(None)
        real(plan, r)
        if len(calls) >= 3:
            r[:] = np.nan

    monkeypatch.setattr(reference, "_solve", solve)


def test_wave_trajectory_ends_at_a_failed_solve(solve_fails_from_the_third_step):
    params, grid = default_params(), default_grid()
    items, status = drain(qf.wave_trajectory(qf.RunConfig(steps=8), params, grid, packet_psi(params, grid)))
    assert [step for step, *_ in items] == [0, 1, 2]
    assert status == "diverged_nonfinite"


def test_cross_check_ends_with_a_reference_whose_solve_fails(solve_fails_from_the_third_step):
    config = qf.RunConfig(estimator="oracle_exact", steps=8)
    rows, status = qf.cross_check(config, default_params(), default_grid())
    assert status == "reference_diverged_nonfinite"
    assert [row[0] for row in rows] == [0, 1, 2]


def test_cross_check_refuses_per_step_noise_before_any_step():
    # only the fluid would carry the noise.  The packet is narrower than a
    # cell, so a started fluid would raise DegenerateDensityError instead
    params = replace(default_params(), D=0.0005)
    with pytest.raises(ValueError, match="per_step"):
        qf.cross_check(qf.RunConfig(noise="per_step"), params, default_grid())


def test_cross_check_warns_once_of_a_packet_the_grid_does_not_hold():
    # only the fluid builds the start state, so only it warns
    params, grid = default_params(), default_grid(n=100)
    with pytest.warns(UserWarning) as record:
        qf.cross_check(qf.RunConfig(estimator="oracle_exact", steps=16), params, grid)
    assert sum("does not fit" in str(w.message) for w in record) == 1
