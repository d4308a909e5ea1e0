"""The large-n kernels build their results in place: each gives the bits of
the formula it states, on random fields and on fields holding +/-0, +/-inf
and NaN, and allocates no more n-sized arrays than counted here at
compare-fine's n = 12288."""

import tracemalloc

import numpy as np
import pytest

import qfluid as qf
from qfluid import integrator, reference
from qfluid.presets import default_params

SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)


def field(rng, n, specials=SPECIALS):
    """n random values with each of ``specials`` at two random cells."""
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
    cells = rng.choice(n, size=2 * len(specials), replace=False)
    values[cells] = np.repeat(specials, 2)
    return values


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


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
    """(total, mean, var) of the weights exp(ln rho - max)."""
    w = np.exp(ln_rho - np.maximum.reduce(ln_rho))
    total = float(np.add.reduce(w))
    x = grid.positions
    mean = float(np.add.reduce(w * x)) / total
    var = float(np.add.reduce(w * (x - mean) ** 2)) / total
    return total, mean, var


def density_distance_formula(rho_a, rho_b, dx):
    num = np.sqrt(np.sum((rho_a - rho_b) ** 2) * dx)
    den = np.sqrt(np.sum(rho_a**2) * dx)
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
    # moments are compared; inf or NaN must be refused as unsummable
    rng = np.random.default_rng(seed)
    grid = qf.make_grid(-3.0, 0.1, 64)
    ln_rho = field(rng, grid.n, specials)
    with np.errstate(all="ignore"):
        total, mean, var = moments_formula(ln_rho, grid)
        if not np.isfinite(total) or total <= 0 or var < (grid.dx / 10.0) ** 2:
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
            assert bits(qf.density_distance(a, b, 0.25)) == bits(density_distance_formula(a, b, 0.25))


@pytest.mark.parametrize("seed, specials", CASES)
def test_the_wave_density_and_the_forces_give_the_bits_of_their_formulas(seed, specials):
    rng = np.random.default_rng(seed)
    n = 64
    psi = field(rng, n, specials).astype(complex)
    psi.imag = field(rng, n, specials)
    ext, quantum, press, x = (field(rng, n, specials) for _ in range(4))
    wave = qf.OracleWave(qf.PhysicalParams(D=0.7, omega=1.3, a=0.4))
    with np.errstate(all="ignore"):
        assert bits(reference._density(psi)) == bits(np.abs(psi) ** 2)
        assert bits(qf.ForceField(ext, quantum, press).total) == bits((ext + quantum) + press)
        assert bits(qf.ForceField(ext, quantum, None).total) == bits(ext + quantum)
        for t in (0.0, 0.9, 2.5):
            assert bits(wave.force(x, t)) == bits(1.3**2 * (x - wave.center(t)))
            assert bits(wave.force(x[1], t)) == bits(1.3**2 * (x[1] - wave.center(t)))


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
    ("moments", 2),
    ("density_distance", 1),
])
def test_each_kernel_allocates_no_more_than_its_result_and_a_scratch_array(kernel, arrays):
    # at n = 12288 an n-float array is 98 KB: a kernel that builds one
    # temporary per operation frees them back to the system and faults them
    # in again on the next step.  The step holds the new ln rho, the total
    # force and the new V, plus the kick's scratch array.
    params = default_params()
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
        "density_distance": lambda: qf.density_distance(rho, mirrored, dx),
    }
    assert peak_arrays(calls[kernel]) == arrays
