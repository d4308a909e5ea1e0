"""Closed-form oscillating wave packet: the exact coherent solution used as
ground truth for tests, diagnostics, and the oracle_exact force estimator,
and the fluid's start state read from it.

All quantities follow from the wave function

    psi(x,t) = (omega/2 pi D)^(1/4)
               * exp[-(omega/4D)(x - a cos(omega t))^2]
               * exp[-i( omega t/2 + (omega/2D) a x sin(omega t)
                         - (omega/8D) a^2 sin(2 omega t) )]

whose density is a rigidly-translating Gaussian of variance D/omega and
whose velocity field V = 2D grad(theta) is uniform in space.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .core import FluidState, PhysicalParams, SpatialGrid

__all__ = ["OracleWave", "init_coherent_state"]

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


@dataclass(frozen=True)
class OracleWave:
    """Evaluator for the exact coherent-packet solution of one scenario."""

    params: PhysicalParams

    def center(self, t):
        """Packet center a cos(omega t)."""
        p = self.params
        return p.a * np.cos(p.omega * t)

    def psi(self, x, t):
        """Complex amplitude of the packet (unit norm)."""
        p = self.params
        x = np.asarray(x, dtype=float)
        envelope = (p.omega / (2 * math.pi * p.D)) ** 0.25 * np.exp(
            -(p.omega / (4 * p.D)) * (x - self.center(t)) ** 2
        )
        phase = -(
            0.5 * p.omega * t
            + (p.omega / (2 * p.D)) * p.a * x * np.sin(p.omega * t)
            - (p.omega / (8 * p.D)) * p.a**2 * np.sin(2 * p.omega * t)
        )
        return envelope * np.exp(1j * phase)

    def ln_density(self, x, t):
        """Log-density ln sqrt(omega/2 pi D) - (omega/2D)(x - center)^2."""
        p = self.params
        x = np.asarray(x, dtype=float)
        ln_peak = math.log(math.sqrt(p.omega / (2 * math.pi * p.D)))
        return ln_peak - (p.omega / (2 * p.D)) * (x - self.center(t)) ** 2

    def density(self, x, t):
        """Probability density exp(ln_density)."""
        return np.exp(self.ln_density(x, t))

    def velocity(self, t):
        """Uniform velocity -a omega sin(omega t)."""
        p = self.params
        return -p.a * p.omega * np.sin(p.omega * t)

    def potential_q(self, x, t):
        """Quantum potential D omega - (1/2) omega^2 (x - center)^2."""
        p = self.params
        x = np.asarray(x, dtype=float)
        return p.D * p.omega - 0.5 * p.omega**2 * (x - self.center(t)) ** 2

    def force(self, x, t):
        """Quantum force -dQ/dx = omega^2 (x - center); cancels the external
        harmonic force up to a spatially uniform remainder, which is what
        transports the packet rigidly."""
        p = self.params
        force = np.asarray(x, dtype=float) - self.center(t)
        force *= p.omega**2
        return force

    def energy(self, x, t):
        """Pointwise energy E = V^2/2 + phi + Q."""
        p = self.params
        x = np.asarray(x, dtype=float)
        return (
            p.D * p.omega
            + p.a * p.omega**2 * x * np.cos(p.omega * t)
            - 0.5 * p.a**2 * p.omega**2 * np.cos(2 * p.omega * t)
        )

    def center_energy(self) -> float:
        """Energy at the packet center: zero-point term plus pendulum term."""
        p = self.params
        return p.D * p.omega + 0.5 * p.a**2 * p.omega**2


def init_coherent_state(params: PhysicalParams, grid: SpatialGrid, t0: float = 0.0) -> FluidState:
    """Initialize the fluid on the exact oscillating packet at time t0: ln rho
    is ``OracleWave.ln_density`` on the grid and V its uniform ``velocity``.
    Warns when the packet's +/-5 sigma does not fit on the grid, naming the
    first caller outside qfluid."""
    wave = OracleWave(params)
    center, sigma = wave.center(t0), params.sigma()
    if center - 5 * sigma < grid.x0 or center + 5 * sigma > grid.x_end:
        warnings.warn(
            f"coherent packet (center {center:g}, sigma {sigma:g}) does not fit "
            f"within +/-5 sigma of the grid [{grid.x0:g}, {grid.x_end:g}]",
            stacklevel=_outside_stacklevel(),
        )
    return FluidState(float(t0), wave.ln_density(grid.positions, t0), np.full(grid.n, wave.velocity(t0)))


def _outside_stacklevel() -> int:
    """The ``warnings.warn`` stacklevel, for a warning raised by this
    function's caller, of the first frame outside the qfluid package."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level
