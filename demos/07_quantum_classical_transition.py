"""Dialing the quantum constant down to zero.

D is a free macroscopic knob.  Large D means a strong anti-spreading force
and a wide equilibrium packet; D -> 0 removes the mechanism entirely and the
trap squeezes the fluid until it collapses to a spike (the runs at D <=
0.25 D_default end on the mass-jump stop, a step before the degenerate-width
guard would end them).  Sweeping D toward zero shows the quantum-to-
classical transition as a monotone loss of survival time.

The packet is initialized at the width that would be in equilibrium at the
*default* D, then evolved with the swept D, so small-D runs start far from
any equilibrium of their own dynamics.
"""

import qfluid as qf
from qfluid.presets import default_grid, default_params

base = default_params()
grid = default_grid()
state0 = qf.init_coherent_state(base, grid, 0.0)

print(" D / D_default   steps survived   final width^2 / initial   status")
survivals = []
for factor in (1.0, 0.5, 0.25, 0.1, 0.03, 0.01):
    params = qf.PhysicalParams(D=base.D * factor, omega=base.omega, a=base.a)
    config = qf.RunConfig(steps=128)
    record = qf.run(config, params, grid, state=state0)
    survivals.append(record.steps_survived)
    print(f"{factor:13.2f} {record.steps_survived:14d} "
          f"{record.var[-1] / record.var[0]:22.3f}   {record.final_status}")

print("\nsurvival is non-increasing toward small D:",
      all(a >= b for a, b in zip(survivals, survivals[1:])))
print("without the fed-back quantum force there is nothing to hold the")
print("packet's shape against the trap")
