"""The fully digital loop: force from raw finite differences of the density.

Instead of fitting a Gaussian, the loop reads H = grad(ln rho) off the
grid, chains it into Q = -D^2 (grad.H + H^2/2) and F = -grad(Q), and
applies that -- exactly what an array of detectors plus an actuator could
do.  The catch: the third-derivative stencil amplifies grid-scale density
ripples.  Over a 16-unit window the loop survives D dt/dx^2 = 0.70 and
dies at 0.75, so the threshold sits well inside the squared-gain bound
(D dt/dx^2)^2 < 1 (``qfluid.presets``).  Below the threshold the run is
indistinguishable from the fitted loop; above it, computing noise takes
over within a fraction of a period.
"""

import qfluid as qf
from qfluid.presets import default_grid, default_params

params = default_params()
grid = default_grid()

print("r = D dt/dx^2; the loop dies above r ~ 0.7\n")
for dt, steps in ((0.02, 800), (0.05, 800), (0.1, 400), (1.0, 40)):
    config = qf.RunConfig(steps=steps, dt=dt, estimator="finite_difference")
    record = qf.run(config, params, grid)
    r = params.D * dt / grid.dx**2
    ce = record.center_error.max()
    print(f"dt={dt:5.2f}  r={r:6.2f}  survived {record.steps_survived:4d}/{steps} steps "
          f"({record.t[-1]:6.1f} time units)  status={record.final_status}  "
          f"max center err={ce:.2e}")

print("\nthe bundled fig6 preset runs dt = 0.02 (r = 0.50, stable) through a")
print("quarter period; pushing dt up reproduces the characteristic divergence")
print("of a raw-stencil loop long before the period completes")

params, config, grid = qf.preset("fig7")
record = qf.run(config, params, grid)
ratio = record.var / record.var[0]
print(f"\nwith pressure on top (kp = 1): width^2 rises to {ratio.max():.2f}x and "
      f"returns to {ratio[-1]:.2f}x -- the same oscillatory spreading the fitted "
      "loop shows, now from raw stencils")
