"""Noise injected into every loop iteration, two ways.

The run can perturb either the measured copy that feeds the force estimate
(noise "measurement": detector and actuation errors) or the evolving fluid
itself (noise "per_step": measurement error plus unmodeled physics dumped
into the density).
Measurement noise leaves the fluid's own moments nearly clean because the
Gaussian fit averages the jitter out of the applied force.  State noise is
far harsher: the recorded dispersion inherits the full per-step fluctuation
and the run eventually dies of accumulated grid-scale noise, the way a real
uncompensated experiment would.
"""

from dataclasses import replace

import qfluid as qf

params, base_config, grid = qf.preset("fig3")

for noise, target in (("measurement", "measurement"), ("per_step", "state")):
    config = replace(base_config, noise=noise, steps=40)
    record = qf.run(config, params, grid)
    ce = record.center_error
    de = record.dispersion_error
    n21 = min(len(ce), 22)
    print(f"--- per-step noise on the {target}")
    print(f"    survived {record.steps_survived}/{config.steps} steps "
          f"({record.final_status})")
    print(f"    max errors over the first 21 steps: center {ce[:n21].max():.3f}, "
          f"dispersion {de[:n21].max():.3f}")
    print(f"    carried mass factor at the end: {record.mass[-1] / record.mass[0]:.3g}\n")

print("the bundled fig3 preset uses measurement noise, which keeps the")
print("mean and dispersion within 5% of the coherent values for a third")
print("of a period; the state-noise variant shows the raw, noisy fluid")
