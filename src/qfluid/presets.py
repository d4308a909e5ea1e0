"""Default scenario and the named experiment presets (fig1..fig7).

The default scenario keeps one oscillation period at 64 time steps
(omega dt = 2 pi / 64), puts the packet amplitude at a = 8 cells (advective
CFL number a*omega*dt/dx < 1), and uses a packet width of sigma = 16 cells
(D = sigma^2 omega).  The width sets the ratio of pressure to quantum force,
kp/(D omega); at sigma = 16 the bundled pressure amplitudes kp = 1 and
kp = 5 produce the mild oscillatory spreading-and-recovery of the packet
rather than tearing it apart.

Each preset binds its own (params, config, grid) because the different
experiments live in different stability corners:

* pressure runs add sound waves with speed sqrt(kp), so their presets
  start with a margin under the acoustic CFL number (|V| + sqrt(kp)) dt/dx
  (0.28 for fig4, 0.25 for fig5).  It is a margin, not a limit the run must
  keep: fig4's own run, which ends ok, reaches 1.118 at t = 6.38;
* the finite-difference force estimator feeds grid-scale density ripples
  back through a third-derivative stencil, and the loop dies once
  D dt/dx^2 passes a threshold between 0.70 and 0.75: over fig6's 16-unit
  window it survives 0.50, 0.63 and 0.70 and dies at 0.75 (t = 8.3), 0.88
  (t = 3.5) and 1.00 (t = 2.2), so the squared-gain bound
  (D dt/dx^2)^2 < 1 admits runs that die.  Its presets run at 0.50.
"""

from __future__ import annotations

import math

from .core import PhysicalParams, RunConfig, SpatialGrid, make_grid

__all__ = [
    "default_params",
    "default_grid",
    "preset",
    "preset_names",
]

OMEGA = 2.0 * math.pi / 64.0  # one period = 64 steps of dt = 1
SIGMA_CELLS = 16.0
AMPLITUDE_CELLS = 8.0
# Edge at 96 cells fits the packet's +/- 5 sigma support and keeps the
# domain inside the trap's advective CFL radius dx/(omega^2 dt^2) ~ 104
# cells at dt = 1.  The radius is a margin, not a limit: fig1 at dt = 2
# (radius 26 cells) runs its 77 steps ok at a 2.3% center error.
GRID_N = 192


def default_params(kp: float = 0.0) -> PhysicalParams:
    return PhysicalParams(D=SIGMA_CELLS**2 * OMEGA, omega=OMEGA, a=AMPLITUDE_CELLS, kp=kp)


def default_grid(dx: float = 1.0, n: int = GRID_N) -> SpatialGrid:
    # nodes from -n dx/2 to (n/2 - 1) dx, so the grid's midpoint is half a
    # cell left of the trap minimum; make_grid(-n dx/2, dx, n + 1) is the
    # mirror-symmetric grid.  Centring it would change every output byte.
    return make_grid(-0.5 * n * dx, dx, n)


# name: (one-line description, kp, config); every preset runs on
# default_params(kp) and default_grid().
PRESETS = {
    "fig1": ("Clean feedback run, Gaussian-fit force: 77 steps = 1.2 periods of the "
             "non-spreading oscillation",
             0.0, RunConfig(steps=77, estimator="gaussian_fit")),
    "fig2": ("Same loop started from a density multiplied by exp(U[0,1]) noise at every "
             "point; one full period",
             0.0, RunConfig(steps=64, estimator="gaussian_fit", noise="initial", seed=9)),
    # The noise lands only on the measured copy; the fluid itself carries none.
    "fig3": ("Fresh exp(U[0,1]) noise injected into the measured density at every loop "
             "iteration; the applied force wobbles accordingly while the fluid's own "
             "moments keep tracking the coherent packet for about 1/3 period",
             0.0, RunConfig(steps=25, estimator="gaussian_fit", noise="measurement", seed=10)),
    # Sound speed sqrt(5) plus the width-breathing flow requires dt = 1/8; the
    # run covers 40 time units so the full breathing cycle is visible.  As in
    # every pressure run with a fitted force, the absorbing strip keeps the
    # momentum that pressure pushes into the tails from piling up at the open
    # boundary; carried on past its window without the strip, fig4 dies at
    # t = 50.
    "fig4": ("Strong pressure (kp = 5): pronounced oscillatory spreading",
             5.0, RunConfig(steps=320, dt=0.125, estimator="gaussian_fit")),
    # The absorbing strip is on, as in fig4.
    "fig5": ("Mild pressure (kp = 1): the packet spreads and nearly recovers after half "
             "a period (32 time units); dt = 1/4 for the acoustic CFL with unit sound speed",
             1.0, RunConfig(steps=160, dt=0.25, estimator="gaussian_fit")),
    # The stencil feedback amplifies grid-scale density ripples; dt = 1/50,
    # D dt/dx^2 = 0.50, keeps the loop below the measured ripple-growth
    # threshold (between 0.70 and 0.75, module docstring) for the whole window.
    "fig6": ("Quantum force taken directly from log-density finite differences (no "
             "fitting), run over a quarter period",
             0.0, RunConfig(steps=800, dt=0.02, estimator="finite_difference")),
    "fig7": ("Finite-difference force plus pressure (kp = 1): oscillatory spreading, "
             "integrated through a full breathing cycle (half a period); same "
             "ripple-gain-limited dt as fig6",
             1.0, RunConfig(steps=1600, dt=0.02, estimator="finite_difference")),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset(name: str) -> tuple[PhysicalParams, RunConfig, SpatialGrid]:
    """Bound (params, config, grid) for a named preset; the config is the
    table's own frozen instance."""
    try:
        _doc, kp, config = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(preset_names())}") from None
    return default_params(kp), config, default_grid()
