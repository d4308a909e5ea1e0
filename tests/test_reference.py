"""Crank-Nicolson wave solver and the fluid <-> wave conversions."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

import qfluid as qf
import qfluid.reference as reference
from qfluid.core import FluidState
from qfluid.presets import default_grid, default_params
from qfluid.reference import AMPLITUDE_FLOOR


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
        # the lagged logarithmic term keeps each step Hermitian
        pytest.param(1.0, 0.5, id="with-pressure"),
    ],
)
def test_cn_preserves_norm(kp, dt):
    params = default_params(kp=kp)
    grid = wide_grid()
    waves = qf.wave_trajectory(qf.RunConfig(dt=dt, steps=64), params, grid, packet_psi(params, grid))
    norms = []
    with pytest.raises(StopIteration) as stop:
        while True:
            _, psi, _ = next(waves)
            norms.append(norm2(psi, grid))
    assert stop.value.value == "ok"
    assert len(norms) == 65
    assert np.max(np.abs(np.array(norms) / norms[0] - 1.0)) <= 1e-10


def apply_h(psi, lagged, grid, params):
    """H psi on the interior, written out from the equation; the pressure
    term w = kp ln|lagged|^2 is taken from the lagged amplitude."""
    rho = np.abs(lagged) ** 2
    w = params.kp * np.log(np.maximum(rho, AMPLITUDE_FLOOR * rho.max()))
    phi = 0.5 * params.omega**2 * grid.positions**2
    laplacian = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / grid.dx**2
    return -params.D * laplacian + (phi + w)[1:-1] / (2.0 * params.D) * psi[1:-1]


@pytest.mark.parametrize("kp", [0.0, 1.0])
def test_cn_step_solves_its_own_equation(kp):
    # each step satisfies (I + zH[psi_k]) psi_{k+1} = (I - zH[psi_k]) psi_k,
    # z = i dt/2, to round-off; with pressure H changes every step, so a
    # step solving with an earlier step's operator fails this
    params = default_params(kp=kp)
    grid = default_grid()
    dt = 0.5
    z = 0.5j * dt
    op = qf.cn_operator(qf.RunConfig(dt=dt), params, grid)
    psi = qf.fluid_to_wave(qf.init_coherent_state(params, grid, 0.0), grid, params)
    for _ in range(4):
        new = qf.cn_step(psi, op, np.abs(psi) ** 2)
        lhs = new[1:-1] + z * apply_h(new, psi, grid, params)
        rhs = psi[1:-1] - z * apply_h(psi, psi, grid, params)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(psi)
        assert new[0] == 0.0 and new[-1] == 0.0
        psi = new


@pytest.mark.parametrize("kp", [pytest.param(0.0, id="kp=0"), pytest.param(1.0, id="kp=1")])
def test_cn_step_couples_the_pinned_end_cells(kp):
    # a random wave with O(1) end cells: the step's right-hand side reads
    # psi_0 and psi_{n-1} through the first and last interior rows of
    # (I - zH) psi, and the new ends are pinned at 0
    params = default_params(kp=kp)
    grid = qf.make_grid(-8.0, 1.0, 17)
    dt = 0.5
    z = 0.5j * dt
    op = qf.cn_operator(qf.RunConfig(dt=dt), params, grid)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    psi[0], psi[-1] = 1.0 - 0.5j, -0.75 + 1.0j
    new = qf.cn_step(psi, op, np.abs(psi) ** 2)
    lhs = new[1:-1] + z * apply_h(new, psi, grid, params)
    rhs = psi[1:-1] - z * apply_h(psi, psi, grid, params)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(psi)
    assert new[0] == 0.0 and new[-1] == 0.0


def cn_matrix(params, grid, dt, w=0.0):
    """The off-diagonal entry and the diagonal of I + zH over the interior,
    z = i dt/2, written out from the equation; w is the pressure term there."""
    z = 0.5j * dt
    off = -params.D / grid.dx**2
    phi = 0.5 * params.omega**2 * grid.positions[1:-1] ** 2
    return z * off, 1.0 + z * (-2.0 * off + (phi + w) / (2.0 * params.D))


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
    # the operator each step rebuilds from the lagged w, at five steps of
    # the preset's reference run
    params, config, grid = qf.preset(name)
    marks = {config.steps * k // 4 for k in range(5)}
    rng = np.random.default_rng(3)
    checked = 0
    for step, _, rho in qf.wave_trajectory(config, params, grid, packet_psi(params, grid)):
        if step in marks:
            w = params.kp * np.log(np.maximum(rho[1:-1], AMPLITUDE_FLOOR * rho.max()))
            e, d = cn_matrix(params, grid, config.dt, w)
            assert_solves(reference._reduce(e, d), e, d, random_wave(rng, grid.n - 2))
            checked += 1
    assert checked == 5


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
    # 2 (I + zH)^-1 b - psi_int, with b carrying the end cells, solved by
    # LAPACK's banded solve
    params, grid = default_params(kp=kp), default_grid()
    dt = 0.5
    rng = np.random.default_rng(17)
    psi = random_wave(rng, grid.n)
    rho = np.abs(psi) ** 2
    w = kp * np.log(np.maximum(rho[1:-1], AMPLITUDE_FLOOR * rho.max()))
    e, d = cn_matrix(params, grid, dt, w)
    b = psi[1:-1].copy()
    b[0] -= 0.5 * e * psi[0]
    b[-1] -= 0.5 * e * psi[-1]
    expected = 2.0 * pivoted_solve(e, d, b) - psi[1:-1]
    new = qf.cn_step(psi, qf.cn_operator(qf.RunConfig(dt=dt), params, grid), rho)
    assert np.linalg.norm(new[1:-1] - expected) <= 1e-12 * np.linalg.norm(expected)


def wave_moments(params, grid, dt, steps):
    """The reference's moments at every step, from the fluid fields read
    out of psi; asserts the run stays finite."""
    waves = qf.wave_trajectory(qf.RunConfig(dt=dt, steps=steps), params, grid, packet_psi(params, grid))
    means, variances = [], []
    for _, psi, rho in waves:
        ln_rho, _ = qf.wave_to_fluid(psi, rho, grid, params)
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


def test_wave_trajectory_yields_every_step_and_returns_ok():
    # with pressure, each step's lagged term comes from the rho yielded
    # before it
    params, grid = default_params(kp=1.0), default_grid()
    waves = qf.wave_trajectory(qf.RunConfig(dt=0.5, steps=10), params, grid, packet_psi(params, grid))
    items = []
    with pytest.raises(StopIteration) as stop:
        while True:
            items.append(next(waves))
    assert stop.value.value == "ok"
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
    waves = qf.wave_trajectory(qf.RunConfig(dt=1.0, steps=4), params, grid, psi0)
    steps = []
    with pytest.raises(StopIteration) as stop:
        while True:
            steps.append(next(waves)[0])
    assert steps == [0]
    assert stop.value.value == "diverged_nonfinite"


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
def test_run_reference_rejects_bad_inputs(bad, field):
    # the config wave_trajectory takes refuses them before the first step
    params, grid = default_params(), default_grid()
    kwargs = {"dt": 1.0, "steps": 4, **bad}
    with pytest.raises(ValueError, match=field):
        next(qf.wave_trajectory(qf.RunConfig(**kwargs), params, grid, packet_psi(params, grid)))


def test_wave_fluid_round_trip():
    params = default_params()
    grid = default_grid()
    x = grid.positions
    ln_rho = -((x - 5.0) ** 2) / (2 * 14.0**2)
    V = 0.3 * np.sin(2 * math.pi * x / 100.0)
    state = FluidState(0.0, ln_rho, V)
    psi = qf.fluid_to_wave(state, grid, params)
    back_ln_rho, back_V = qf.wave_to_fluid(psi, np.abs(psi) ** 2, grid, params)
    core = np.abs(x - 5.0) <= 3 * 14.0
    assert np.allclose(back_ln_rho[core], ln_rho[core], atol=1e-10)
    assert np.max(np.abs(back_V[core] - V[core])) <= 5e-3  # O(dx^2) phase gradient


def test_wave_to_fluid_extracts_uniform_velocity():
    params = default_params()
    grid = default_grid()
    t = 0.5 * math.pi / params.omega
    psi = qf.OracleWave(params).psi(grid.positions, t)
    _, V = qf.wave_to_fluid(psi, np.abs(psi) ** 2, grid, params)
    core = np.abs(grid.positions - 0.0) <= 3 * params.sigma()
    assert np.allclose(V[core], -params.a * params.omega, rtol=5e-3)


def test_real_positive_wave_has_zero_velocity():
    params = default_params()
    grid = default_grid()
    psi = np.exp(-grid.positions**2 / 100.0).astype(complex)
    _, V = qf.wave_to_fluid(psi, np.abs(psi) ** 2, grid, params)
    assert np.allclose(V, 0.0, atol=1e-12)


def test_wave_to_fluid_vacuum_and_ends_have_zero_velocity():
    # a plane wave with a hole: zeros and amplitudes below the floor.  The
    # hole and both ends (which are not vacuum) read V = 0 exactly, and
    # nothing divides by a vanishing density
    params = default_params()
    grid = default_grid()
    psi = np.exp(0.3j * grid.positions)
    vacuum = np.zeros(grid.n, dtype=bool)
    vacuum[40:60] = True
    psi[40:50] = 0.0
    psi[50:60] = 1e-9 * psi[50:60]  # |psi|^2 = 1e-18, below 1e-14 of the peak
    rho = np.abs(psi) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, V = qf.wave_to_fluid(psi, rho, grid, params)
    assert np.all(V[vacuum] == 0.0)
    assert V[0] == 0.0 and V[-1] == 0.0
    # away from the hole and the ends: the central-difference phase gradient
    far = np.ones(grid.n, dtype=bool)
    far[[0, -1]] = False
    far[39:61] = False
    expected = 2.0 * params.D * math.sin(0.3 * grid.dx) / grid.dx
    assert np.allclose(V[far], expected, rtol=1e-12)


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


@pytest.mark.parametrize("name, noise", [("fig1", "none"), ("fig2", "initial"), ("fig3", "measurement")])
def test_cross_check_starts_the_reference_from_the_fluids_step_0(name, noise):
    # every noise mode compare accepts, fig2's noisy start included: the
    # step-0 row compares a state with itself
    params, config, grid = qf.preset(name)
    assert config.noise == noise
    rows, _ = qf.cross_check(replace(config, steps=1), params, grid)
    assert rows[0][:2] == (0, 0.0)
    assert rows[0][2] <= 1e-15


# dx^2 is subnormal, so D/dx^2 overflows in the CN operator: the reference
# goes non-finite at step 1 while the closed-form-force fluid runs on
@pytest.mark.filterwarnings("ignore:coherent packet:UserWarning")
def test_cross_check_ends_with_the_reference_and_returns_its_status():
    params, grid = default_params(), default_grid(dx=1e-160)
    rows, status = qf.cross_check(qf.RunConfig(estimator="oracle_exact", steps=16), params, grid)
    assert status == "reference_diverged_nonfinite"
    assert [row[0] for row in rows] == [0]


def test_wave_trajectory_ends_on_an_operator_whose_potential_overflows():
    # omega^2 x^2 overflows at |x| = 3 for omega = 1e154: the diagonal of
    # I + zH is nan + inf i, the system is small enough to be inverted whole,
    # and that inverse is singular.  The run ends as non-finite at step 1,
    # silently
    params, grid = qf.PhysicalParams(D=1.0, omega=1e154), qf.make_grid(-3.0, 1.0, 7)
    psi0 = np.exp(-np.arange(-3.0, 4.0) ** 2).astype(complex)
    waves = qf.wave_trajectory(qf.RunConfig(steps=4), params, grid, psi0)
    steps = []
    with pytest.raises(StopIteration) as stop:
        while True:
            steps.append(next(waves)[0])
    assert steps == [0]
    assert stop.value.value == "diverged_nonfinite"


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
    waves = qf.wave_trajectory(qf.RunConfig(steps=8), params, grid, packet_psi(params, grid))
    steps = []
    with pytest.raises(StopIteration) as stop:
        while True:
            steps.append(next(waves)[0])
    assert steps == [0, 1, 2]
    assert stop.value.value == "diverged_nonfinite"


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
