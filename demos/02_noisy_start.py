"""Robustness to a messy preparation: exp(U[0,1]) noise on the initial density.

Every grid cell of the starting density is multiplied by a random factor
between 1 and e.  The feedback loop doesn't care: the Gaussian fit sees
through the jitter, the packet keeps oscillating, and the Lax averaging
actually irons the wrinkles out as the run proceeds.
"""

import qfluid as qf

params, config, grid = qf.preset("fig2")
record = qf.run(config, params, grid)

print(f"one full period ({config.steps} steps) from a noisy start, seed {config.seed}")
print(f"status: {record.final_status}\n")

ce, de = record.center_error, record.dispersion_error
print("step   center error   width error   ln-density roughness")
for k in range(0, len(record.t), 8):
    print(f"{k:4d} {ce[k]:13.4f} {de[k]:12.4f} {record.smoothness_series[k]:16.5f}")

print(f"\nterminal center error:  {ce[-1]:.3f}")
print(f"terminal width error:   {de[-1]:.3f}")
drop = record.smoothness_series[0] / record.smoothness_series[-1]
print(f"roughness of ln(rho) dropped {drop:.0f}x over the period: "
      "the loop smoothed its own input noise away")
