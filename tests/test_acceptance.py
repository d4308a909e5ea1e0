"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest

import qfluid as qf
from qfluid.presets import default_grid, default_params, preset


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_clean_oscillation():
    """Gaussian-fit feedback, no noise, kp = 0, 77 steps (1.2 periods):
    center and dispersion stay within 5% of the coherent solution."""
    params, config, grid = preset("fig1")
    t0 = time.perf_counter()
    record = qf.run(config, params, grid)
    elapsed = time.perf_counter() - t0
    ce = float(np.max(record.center_error))
    de = float(np.max(record.dispersion_error))
    ok = (
        record.steps_survived == 77
        and record.final_status == "ok"
        and ce <= 0.05
        and de <= 0.05
        and elapsed < 1.0
    )
    _report(1, ok, f"center_err={ce:.2e} dispersion_err={de:.2e} runtime={elapsed:.2f}s")


def test_criterion_2_noisy_initial_state():
    """exp(U[0,1]) noise on the initial density: one full period survives,
    terminal errors stay within 10%, and the loop smooths the noise out."""
    params, config, grid = preset("fig2")
    record = qf.run(config, params, grid)
    ce = float(record.center_error[-1])
    de = float(record.dispersion_error[-1])
    smoothed = record.smoothness_series[-1] < record.smoothness_series[0]
    ok = record.steps_survived >= 64 and ce <= 0.10 and de <= 0.10 and smoothed
    _report(
        2,
        ok,
        f"survived={record.steps_survived} terminal center_err={ce:.3f} "
        f"dispersion_err={de:.3f} smoothness {record.smoothness_series[0]:.3f}"
        f"->{record.smoothness_series[-1]:.4f}",
    )


def test_criterion_3_noise_every_step():
    """Fresh exp(U[0,1]) measurement noise at every loop iteration: mean and
    dispersion track the coherent values within 5% for at least 21 steps
    (about 1/3 period)."""
    params, config, grid = preset("fig3")
    record = qf.run(config, params, grid)
    window = slice(0, 22)
    ce = float(np.max(record.center_error[window]))
    de = float(np.max(record.dispersion_error[window]))
    ok = record.steps_survived >= 21 and ce <= 0.05 and de <= 0.05
    _report(
        3,
        ok,
        f"survived={record.steps_survived} max over 21 steps: center_err={ce:.3f} "
        f"dispersion_err={de:.3f}",
    )


def test_criterion_4_pressure_runs():
    """Pressure amplitudes kp = 1 and kp = 5: the dispersion oscillates, and
    for kp = 1 the variance returns within 15% of its initial value near
    half a period."""
    # kp = 1
    params1, config1, grid = preset("fig5")
    rec1 = qf.run(config1, params1, grid)
    ratio1 = rec1.var / rec1.var[0]
    half = int(round(0.5 * (2 * math.pi / params1.omega) / config1.dt))
    ok1 = rec1.steps_survived >= half + 10
    window = np.abs(ratio1[half - 12 : half + 13] - 1.0)
    oscillatory1 = ratio1.max() >= 1.2 and window.min() <= 0.15
    # kp = 5
    params5, config5, _ = preset("fig4")
    rec5 = qf.run(config5, params5, grid)
    ratio5 = rec5.var / rec5.var[0]
    peak = int(np.argmax(ratio5))
    oscillatory5 = (
        rec5.final_status == "ok"
        and ratio5.max() >= 1.5
        and 0 < peak < len(ratio5) - 1
        and ratio5[-1] <= 0.6 * ratio5.max()
    )
    ok = ok1 and oscillatory1 and oscillatory5
    _report(
        4,
        ok,
        f"kp=1: peak={ratio1.max():.2f} half-period |var/var0-1|={window.min():.3f}; "
        f"kp=5: peak={ratio5.max():.2f} final={ratio5[-1]:.2f}",
    )


def test_criterion_5_stencil_estimator():
    """Force taken from log-density finite differences: at least 16 steps
    survive (a quarter period) with errors within 5%."""
    params, config, grid = preset("fig6")
    record = qf.run(config, params, grid)
    ce = float(np.max(record.center_error))
    de = float(np.max(record.dispersion_error))
    ok = record.steps_survived >= 16 and ce <= 0.05 and de <= 0.05
    _report(
        5,
        ok,
        f"survived={record.steps_survived}/{config.steps} center_err={ce:.2e} "
        f"dispersion_err={de:.2e}",
    )


def test_criterion_6_stencil_estimator_with_pressure():
    """Finite-difference force plus kp = 1: at least 13 steps survive and the
    variance series shows the oscillatory spreading (a rise of at least 20%
    followed by a drop of at least 20% from the peak)."""
    params, config, grid = preset("fig7")
    record = qf.run(config, params, grid)
    ratio = record.var / record.var[0]
    peak = int(np.argmax(ratio))
    oscillatory = (
        ratio.max() >= 1.2 and 0 < peak < len(ratio) - 1 and ratio[-1] <= 0.8 * ratio.max()
    )
    ok = record.steps_survived >= 13 and oscillatory
    _report(
        6,
        ok,
        f"survived={record.steps_survived} variance peak={ratio.max():.2f} at step {peak}, "
        f"final={ratio[-1]:.2f}",
    )


def _compare_l2(dx: float, dt: float, steps: int) -> float:
    params = default_params()
    grid = qf.make_grid(-96.0, dx, int(round(192 / dx)))
    config = qf.RunConfig(steps=steps, dt=dt, estimator="oracle_exact")
    rows, final_status = qf.cross_check(config, params, grid)
    assert final_status == "ok"
    return max(dist for _, _, dist in rows)


def test_criterion_7_schrodinger_equivalence():
    """Feedback evolution with the closed-form force vs the wave-equation
    reference solver: relative L2 density distance stays within 5% over 16
    steps and shrinks under (dx, dt) refinement."""
    coarse = _compare_l2(1.0, 1.0, 16)
    fine = _compare_l2(0.5, 0.5, 32)
    ok = coarse <= 0.05 and fine < coarse
    _report(7, ok, f"L2 distance {coarse:.4f} at default, {fine:.4f} refined")


def test_criterion_8_zero_point_energy():
    """The center-energy estimate reproduces D*omega + a^2 omega^2/2 within
    2%, and D*omega for a packet at rest."""
    params = default_params()
    grid = default_grid()
    state = qf.init_coherent_state(params, grid, 0.0)
    e = qf.center_energy_estimate(state, grid, params)
    e_c = qf.OracleWave(params).center_energy()
    still = qf.PhysicalParams(D=params.D, omega=params.omega, a=0.0)
    e0 = qf.center_energy_estimate(qf.init_coherent_state(still, grid, 0.0), grid, still)
    ok = abs(e / e_c - 1.0) <= 0.02 and abs(e0 / (params.D * params.omega) - 1.0) <= 0.02
    _report(
        8,
        ok,
        f"estimate={e:.5f} vs E_c={e_c:.5f}; at rest {e0:.5f} vs {params.D * params.omega:.5f}",
    )


def test_criterion_9_estimator_equivalence():
    """On 50 random log-quadratic densities the stencil force matches the
    Gaussian-fit force within 1% over the 3-sigma core, and its error
    against the closed form converges at second order (ratio in [3.5, 4.5]
    under dx halving)."""
    params = qf.PhysicalParams(D=25.0, omega=0.1)
    grid = qf.make_grid(-100.0, 1.0, 200)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        sigma = rng.uniform(4.0, 10.0)
        center = rng.uniform(-20.0, 20.0)
        amp = rng.uniform(-1.0, 1.0)
        x = grid.positions
        ln_rho = amp - (x - center) ** 2 / (2 * sigma**2)
        f_fd = qf.fd_quantum_force(ln_rho, grid, params)
        f_gauss = qf.gaussian_fit_force(ln_rho, grid, params)
        core = np.abs(x - center) <= 3 * sigma
        worst = max(worst, float(np.max(np.abs(f_fd[core] - f_gauss[core]))
                                 / np.max(np.abs(f_gauss[core]))))

    # order check against the closed-form force on a non-quadratic log-density
    center, sigma, eps, q, D = 3.0, 8.0, 0.05, 0.7, 25.0

    def stencil_error(dx):
        g = qf.make_grid(-100.0, dx, int(round(200 / dx)))
        x = g.positions
        u = x - center
        ln_rho = -(u**2) / (2 * sigma**2) + eps * np.cos(q * u)
        F = qf.fd_quantum_force(ln_rho, g, params)
        L1 = -u / sigma**2 - eps * q * np.sin(q * u)
        L2 = -1.0 / sigma**2 - eps * q**2 * np.cos(q * u)
        L3 = eps * q**3 * np.sin(q * u)
        exact = D**2 * (L3 + L2 * L1)
        coreband = np.abs(u) <= 3 * sigma
        return float(np.max(np.abs(F[coreband] - exact[coreband])))

    ratio = stencil_error(1.0) / stencil_error(0.5)
    ok = worst <= 0.01 and 3.5 <= ratio <= 4.5
    _report(9, ok, f"max fd-vs-gauss deviation={worst:.2e}; convergence ratio={ratio:.2f}")


def test_criterion_10_oracle_self_consistency():
    """Gradient, Madelung-velocity, wave-equation-residual, and
    center-energy identities of the closed-form solution."""
    params = default_params()
    wave = qf.OracleWave(params)
    rng = np.random.default_rng(11)

    # -dQ/dx equals the quantum force
    h = 1e-3
    grad_ok = all(
        abs(
            -(wave.potential_q(x + h, t) - wave.potential_q(x - h, t)) / (2 * h)
            - wave.force(x, t)
        )
        <= 1e-6
        for x, t in zip(rng.uniform(-30, 30, 50), rng.uniform(0, 128, 50))
    )

    # 2 D theta_x recovers -a omega sin(omega t)
    madelung_ok = True
    for t in np.linspace(0.5, 127.5, 20):
        x = 3.0
        dpsi = (wave.psi(x + h, t) - wave.psi(x - h, t)) / (2 * h)
        v = 2 * params.D * (dpsi / wave.psi(x, t)).imag
        madelung_ok &= abs(v - wave.velocity(t)) <= 1e-5

    # generalized wave-equation residual on the closed form
    hh = 0.02
    residual_ok = True
    for _ in range(100):
        x = rng.uniform(-25, 25)
        t = rng.uniform(1.0, 127.0)
        psi_xx = (
            -wave.psi(x + 2 * hh, t) + 16 * wave.psi(x + hh, t) - 30 * wave.psi(x, t)
            + 16 * wave.psi(x - hh, t) - wave.psi(x - 2 * hh, t)
        ) / (12 * hh**2)
        psi_t = (
            -wave.psi(x, t + 2 * hh) + 8 * wave.psi(x, t + hh)
            - 8 * wave.psi(x, t - hh) + wave.psi(x, t - 2 * hh)
        ) / (12 * hh)
        residual = (
            params.D**2 * psi_xx
            + 1j * params.D * psi_t
            - 0.25 * params.omega**2 * x**2 * wave.psi(x, t)
        )
        residual_ok &= abs(residual) <= 1e-6 * abs(wave.psi(x, t))

    # E at the packet center equals E_c at 20 sampled times
    e_c = wave.center_energy()
    energy_ok = all(
        abs(wave.energy(params.a * math.cos(params.omega * t), t) - e_c) <= 1e-12 * e_c
        for t in np.linspace(0.0, 128.0, 20)
    )

    ok = grad_ok and madelung_ok and residual_ok and energy_ok
    _report(
        10,
        ok,
        f"gradient={grad_ok} madelung={madelung_ok} residual={residual_ok} energy={energy_ok}",
    )
