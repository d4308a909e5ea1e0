"""The kernels build their results in place: each gives the bits of the
formula it states, on random fields and on fields holding +/-0, +/-inf and
NaN, and allocates no more n-sized arrays than counted here at
compare-fine's n = 12288.

NaN is compared as NaN, whatever its sign bit.  IEEE 754 leaves the sign
of a NaN result unspecified, and for two NaN operands the paths differ:
numpy arrays and CPython 3.11's specialized float ops keep the left one;
numpy float64 scalars, CPython 3.10 and some builds' generic float ops
(3.11.7's before an op warms up, or under a trace function) keep the right
one.  ``fd_quantum_force`` fills its edge band in Python floats, so a
pinned sign would pin the interpreter, its build and its path."""

import tracemalloc

import numpy as np
import pytest

import qfluid as qf
from qfluid import forces, integrator, reference
from qfluid.presets import default_grid, default_params

SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)


def field(rng, n, specials=SPECIALS):
    """n random values with each of ``specials`` at two random cells, or at
    one where n has no room for two."""
    copies = 2 if n >= 2 * len(specials) else 1
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
    cells = rng.choice(n, size=copies * len(specials), replace=False)
    values[cells] = np.repeat(specials, copies)
    return values


def bits(value):
    """The float64 bytes of ``value``, with every NaN as the one NaN
    ``np.nan``, so a NaN's place is pinned but not its sign."""
    value = np.asarray(value, dtype=float)
    return np.where(np.isnan(value), np.nan, value).tobytes()


# each kernel's formula, as its docstring states it, in plain numpy expressions


def continuity_formula(ln_rho, V, dt, dx):
    new = np.empty_like(ln_rho)
    new[1:-1] = 0.5 * (ln_rho[2:] + ln_rho[:-2]) - (dt / (2 * dx)) * (
        (V[2:] - V[:-2]) + V[1:-1] * (ln_rho[2:] - ln_rho[:-2])
    )
    new[0] = 2.0 * new[1] - new[2]
    new[-1] = 2.0 * new[-2] - new[-3]
    return new


def velocity_formula(V, total_force, dt, dx):
    new = np.empty_like(V)
    new[1:-1] = 0.5 * (V[2:] + V[:-2]) + dt * (
        -V[1:-1] * (V[2:] - V[:-2]) / (2 * dx) + total_force[1:-1]
    )
    new[0] = new[1]
    new[-1] = new[-2]
    return new


def moments_formula(ln_rho, grid):
    """(total, mean, var): the weights exp(ln rho - max) summed against the
    rows 1, x - c and (x - c)^2 in one product, c the grid midpoint, then
    the mean c + d and the shifted variance about it."""
    w = np.exp(ln_rho - np.maximum.reduce(ln_rho))
    c = grid.x0 + (grid.n - 1) * grid.dx / 2
    x = grid.positions - c
    total, first, second = (np.stack([np.ones(grid.n), x, x**2]) @ w).tolist()
    d = first / total
    return total, c + d, second / total - d * d


def log_gradient_formula(ln_rho, dx):
    H = np.zeros(ln_rho.shape)
    H[1:-1] = (ln_rho[2:] - ln_rho[:-2]) / (2 * dx)
    return H


def quantum_potential_formula(H, dx, D):
    Q = np.zeros(H.shape)
    Q[2:-2] = -D**2 * ((H[3:-1] - H[1:-3]) / (2 * dx) + 0.5 * H[2:-2] ** 2)
    return Q


def stencil_force_formula(ln_rho, dx, D):
    """The chain's central difference on cells 3..n-4 and zeros on the outer
    3 cells; then F[k] + o (F[k+1] - F[k]) at offsets o = -k..-1 from the
    first valid cell k, and its mirror image on the right, both read from
    that zero-filled F."""
    Q = quantum_potential_formula(log_gradient_formula(ln_rho, dx), dx, D)
    F = np.zeros(Q.shape)
    F[3:-3] = (Q[2:-4] - Q[4:-2]) / (2 * dx)
    k = forces.STENCIL_EDGE
    out = F.copy()
    out[:k] = F[k] + np.arange(-k, 0) * (F[k + 1] - F[k])
    out[-k:] = F[-k - 1] + np.arange(1, k + 1) * (F[-k - 1] - F[-k - 2])
    return out


def pressure_formula(ln_rho, dx, kp):
    F = np.zeros(ln_rho.shape)
    F[1:-1] = -kp * (ln_rho[2:] - ln_rho[:-2]) / (2 * dx)
    return F


def density_distance_formula(rho_a, rho_b):
    num = np.sqrt(np.sum((rho_a - rho_b) ** 2))
    den = np.sqrt(np.sum(rho_a**2))
    return float(num / den)


CASES = [(seed, specials) for seed in range(6) for specials in ((), SPECIALS)]


@pytest.mark.parametrize("seed, specials", CASES)
def test_the_lax_updates_give_the_bits_of_their_formulas(seed, specials):
    rng = np.random.default_rng(seed)
    n = 64
    ln_rho, V, F = (field(rng, n, specials) for _ in range(3))
    for dt, dx in ((1 / 64, 1 / 64), (0.3, 0.7), (1.0, 1e-3)):
        with np.errstate(all="ignore"):
            got_lnr = integrator._continuity_update(ln_rho, V, dt, dx)
            want_lnr = continuity_formula(ln_rho, V, dt, dx)
            got_V = integrator._velocity_update(V, F, dt, dx)
            want_V = velocity_formula(V, F, dt, dx)
        assert bits(got_lnr) == bits(want_lnr)
        assert bits(got_V) == bits(want_V)


@pytest.mark.parametrize("seed, specials", CASES + [(seed, (0.0, -0.0, -np.inf)) for seed in range(6)])
def test_moments_give_the_bits_of_their_formulas(seed, specials):
    # +/-0 and -inf (a zero weight) leave the weights summable, so the
    # moments are compared; inf or NaN must be refused as unsummable, and a
    # delta-like density as degenerate
    rng = np.random.default_rng(seed)
    grid = qf.make_grid(-3.0, 0.1, 64)
    ln_rho = field(rng, grid.n, specials)
    with np.errstate(all="ignore"):
        total, mean, var = moments_formula(ln_rho, grid)
        if not np.isfinite(total):
            with pytest.raises(qf.NonFiniteDensityError):
                qf.moments(ln_rho, grid)
            return
        assert total >= 1.0
        if var < (grid.dx / 10.0) ** 2:
            with pytest.raises(qf.DegenerateDensityError):
                qf.moments(ln_rho, grid)
            return
        m = qf.moments(ln_rho, grid)
    assert bits([m.mean, m.var]) == bits([mean, var])


@pytest.mark.parametrize("seed, specials", CASES)
def test_density_distance_gives_the_bits_of_its_formula(seed, specials):
    rng = np.random.default_rng(seed)
    rho_a, rho_b = np.abs(field(rng, 64, specials)), np.abs(field(rng, 64, specials))
    for a, b in ((rho_a, rho_b), (rho_a, rho_a), (rho_b, rho_a)):
        with np.errstate(all="ignore"):
            assert bits(qf.density_distance(a, b)) == bits(density_distance_formula(a, b))


@pytest.mark.parametrize("seed, specials", CASES)
def test_the_wave_density_and_the_forces_give_the_bits_of_their_formulas(seed, specials):
    rng = np.random.default_rng(seed)
    n = 64
    psi = field(rng, n, specials).astype(complex)
    psi.imag = field(rng, n, specials)
    x = field(rng, n, specials)
    wave = qf.OracleWave(qf.PhysicalParams(D=0.7, omega=1.3, a=0.4))
    with np.errstate(all="ignore"):
        assert bits(reference._density(psi)) == bits(np.abs(psi) ** 2)
        for t in (0.0, 0.9, 2.5):
            assert bits(wave.force(x, t)) == bits(1.3**2 * (x - wave.center(t)))
            assert bits(wave.force(x[1], t)) == bits(1.3**2 * (x[1] - wave.center(t)))


def quantum_estimate(estimator, measured, grid, params, t):
    """The quantum force ``estimator`` gives for the ``measured`` ln rho."""
    if estimator == "gaussian_fit":
        return qf.gaussian_fit_force(measured, grid, params)
    if estimator == "finite_difference":
        return stencil_force_formula(measured, grid.dx, params.D)
    if estimator == "oracle_exact":
        return qf.OracleWave(params).force(grid.positions, t)
    return np.zeros(grid.n)


@pytest.mark.parametrize("kp", [0.0, 1.0])
@pytest.mark.parametrize("estimator", qf.core.ESTIMATORS)
def test_the_total_force_gives_the_bits_of_its_formula(estimator, kp):
    # the total is (external + quantum) + pressure, the pressure term
    # absent at kp = 0, and is a fresh writable array: the cached, read-only
    # trap force is neither returned nor written
    params, grid = default_params(kp=kp), default_grid()
    ln_rho = qf.init_coherent_state(params, grid, 0.0).ln_rho
    measured = ln_rho + np.random.default_rng(5).uniform(0.0, 0.1, grid.n)
    ext = qf.external_force(grid, params)
    cached = ext.tobytes()
    total = qf.build_force_field(grid, params, qf.RunConfig(estimator=estimator), measured, ln_rho, 0.9)
    want = ext + quantum_estimate(estimator, measured, grid, params, 0.9)
    if kp:
        want += pressure_formula(ln_rho, grid.dx, kp)
    assert bits(total) == bits(want)
    assert total.flags.writeable and not np.shares_memory(total, ext)
    assert ext.tobytes() == cached and qf.external_force(grid, params) is ext


@pytest.mark.parametrize("n", [64, 9, 8, 7])
@pytest.mark.parametrize("seed, specials", CASES)
def test_the_stencil_chain_and_the_pressure_give_the_bits_of_their_formulas(seed, specials, n):
    # n = 7 is the smallest grid: one stencil cell, and edge bands that
    # overlap; on n = 8 each band reads one zero-filled cell, and n = 9 is
    # the first grid where no band read does
    rng = np.random.default_rng(seed)
    ln_rho, H = (field(rng, n, specials) for _ in range(2))
    params = qf.PhysicalParams(D=0.7, omega=1.3, kp=1.7)
    config = qf.RunConfig(estimator="finite_difference")
    for dx in (1 / 64, 0.7, 1e-3):
        grid = qf.make_grid(-3.0, dx, n)
        with np.errstate(all="ignore"):
            got = [forces._log_gradient(ln_rho, dx), forces._quantum_potential(H[1:-1], dx, 0.7),
                   qf.fd_quantum_force(ln_rho, grid, params),
                   qf.pressure_force(ln_rho, grid, params),
                   qf.build_force_field(grid, params, config, H, ln_rho, 0.0)]
            want = [log_gradient_formula(ln_rho, dx)[1:-1], quantum_potential_formula(H, dx, 0.7)[2:-2],
                    stencil_force_formula(ln_rho, dx, 0.7),
                    pressure_formula(ln_rho, dx, 1.7),
                    qf.external_force(grid, params) + quantum_estimate(config.estimator, H, grid, params, 0.0)
                    + pressure_formula(ln_rho, dx, 1.7)]
        assert [bits(g) for g in got] == [bits(w) for w in want]


def damping_formula(n):
    """1/(1 + s), s = (k/8)^2 on the cells k = 8..1 from either end, the
    larger of the two where the strips overlap, and 0 elsewhere."""
    s = np.zeros(n)
    for j in range(min(integrator.SPONGE_CELLS, n)):
        ramp = ((integrator.SPONGE_CELLS - j) / integrator.SPONGE_CELLS) ** 2
        s[j] = max(s[j], ramp)
        s[n - 1 - j] = max(s[n - 1 - j], ramp)
    return 1.0 / (1.0 + s)


@pytest.mark.parametrize("n", [7, 15, 16, 17, 192])
def test_the_sponge_damping_gives_the_bits_of_its_formula(n):
    # on 7 and 15 cells the two strips overlap, on 16 they meet; the factor
    # is 1/2 at each end cell and the cached array is read-only
    damp = integrator._damping(n)
    assert bits(damp) == bits(damping_formula(n))
    assert damp[0] == damp[-1] == 0.5 and not damp.flags.writeable
    assert integrator._damping(n) is damp


def cn_step_formula(psi, op, rho, dt, dx, D):
    """The Cayley step unfolded: the half phase, a copy of psi_int less the
    end cells' coupling (z off/2) psi_0 and (z off/2) psi_{n-1}, z = i dt/2
    and off = -D/dx^2, the solve, x2, -psi_int, and the half phase from the
    new |psi|^2."""
    if op.half_phase:
        psi = psi * reference._pressure_phase(rho, op.half_phase)
    half_edge = 0.5 * (0.5j * dt) * (-D / dx**2)
    b = psi[1:-1].copy()
    b[0] -= half_edge * psi[0]
    b[-1] -= half_edge * psi[-1]
    reference._solve(op.plan, b)
    new = np.zeros(psi.size, dtype=complex)
    new[1:-1] = 2.0 * b - psi[1:-1]
    if op.half_phase:
        new = new * reference._pressure_phase(np.abs(new) ** 2, op.half_phase)
    return new


@pytest.mark.parametrize("kp", [0.0, 1.0])
@pytest.mark.parametrize("seed", range(6))
def test_cn_step_gives_the_bits_of_its_unfolded_formula(seed, kp):
    # the step doubles its right-hand side as it copies it; the solve is
    # linear and doubling exact, so on normal-range values that folding
    # keeps every bit.  n = 7 is inverted whole, n = 192 and 1000 are reduced
    rng = np.random.default_rng(seed)
    params = default_params(kp=kp)
    for n, dt in ((7, 0.5), (192, 1.0), (1000, 0.25)):
        grid = default_grid(n=n)
        op = reference.cn_operator(qf.RunConfig(dt=dt), params, grid)
        psi = field(rng, n, ()) + 1j * field(rng, n, ())
        rho = np.abs(psi) ** 2
        want = cn_step_formula(psi, op, rho, dt, grid.dx, params.D)
        assert bits(qf.cn_step(psi, op, rho).view(float)) == bits(want.view(float))


N = 12288


def peak_arrays(call):
    """The peak of the memory one ``call()`` allocates, in n-float arrays;
    a first call beforehand fills any cache the call builds."""
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round((peak - before) / (N * np.dtype(float).itemsize))


@pytest.mark.parametrize("kernel, arrays", [
    ("drift_kick_step", 4),
    ("_continuity_update", 2),
    ("_velocity_update", 2),
    ("moments", 1),
    ("fd_quantum_force", 3),
    ("pressure_force", 1),
    ("build_force_field", 2),
    ("density_distance", 1),
])
def test_each_kernel_allocates_no_more_than_its_result_and_a_scratch_array(kernel, arrays):
    # at n = 12288 an n-float array is 98 KB: a kernel that builds one
    # temporary per operation frees them back to the system and faults them
    # in again on the next step.  The step holds the new ln rho, the total
    # force and the new V, plus the kick's scratch array.  The stencil chain
    # holds H, Q and the half square of H, then Q and its result.  The force
    # at kp = 1 holds the total and the pressure added into it.
    params, pressured = default_params(), default_params(kp=1.0)
    dx = 1 / 64
    grid = qf.make_grid(-(N // 2) * dx, dx, N)
    config = qf.RunConfig(dt=dx, estimator="oracle_exact")
    state = qf.init_coherent_state(params, grid)
    rho = np.exp(state.ln_rho)
    mirrored = rho[::-1].copy()
    calls = {
        "drift_kick_step": lambda: qf.drift_kick_step(state, grid, params, config),
        "_continuity_update": lambda: integrator._continuity_update(state.ln_rho, state.V, dx, dx),
        "_velocity_update": lambda: integrator._velocity_update(state.V, rho, dx, dx),
        "moments": lambda: qf.moments(state.ln_rho, grid),
        "fd_quantum_force": lambda: qf.fd_quantum_force(state.ln_rho, grid, params),
        "pressure_force": lambda: qf.pressure_force(state.ln_rho, grid, params),
        "build_force_field": lambda: qf.build_force_field(grid, pressured, config, state.ln_rho, state.ln_rho, 0.0),
        "density_distance": lambda: qf.density_distance(rho, mirrored),
    }
    assert peak_arrays(calls[kernel]) == arrays
