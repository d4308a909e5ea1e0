"""The flagship experiment: a classical fluid turned quantum-like.

A Gaussian blob sits in a harmonic trap.  Left alone it would slosh and
squeeze; instead, every time step the loop measures the density, fits a
Gaussian, and applies the corresponding quantum force D^2 (x - mean)/var^2
back onto the fluid.  The result is the signature of a coherent state: the
packet's center follows the classical pendulum a*cos(omega t) while its
width never changes.
"""

import numpy as np

import qfluid as qf

params, config, grid = qf.preset("fig1")
record = qf.run(config, params, grid)

print(f"scenario: D={params.D:.4f}, omega={params.omega:.4f} (64 steps/period), "
      f"a={params.a:g}, sigma={params.sigma():g}")
print(f"ran {record.steps_survived} steps ({record.steps_survived / 64:.2f} periods), "
      f"status: {record.final_status}\n")

print("step      t   center   a*cos(wt)    width^2   width^2/(D/w)")
for k in range(0, len(record.t), 8):
    expected = params.a * np.cos(params.omega * record.t[k])
    print(f"{k:4d} {record.t[k]:6.1f} {record.mean[k]:8.3f} {expected:10.3f} "
          f"{record.var[k]:10.3f} {record.var[k] / params.equilibrium_sigma2():11.6f}")

ce = record.center_error
de = record.dispersion_error
print(f"\nmax center error:     {ce.max():.2e} of the amplitude")
print(f"max dispersion error: {de.max():.2e} of the equilibrium width")
print("the packet oscillates rigidly: no spreading, no squeezing")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 3.5))
    ax1.plot(record.t, record.mean, label="measured center")
    ax1.plot(record.t, params.a * np.cos(params.omega * record.t), "--", label="a cos(wt)")
    ax1.set_xlabel("t"); ax1.set_ylabel("packet center"); ax1.legend()
    ax2.plot(record.t, record.var / params.equilibrium_sigma2())
    ax2.set_xlabel("t"); ax2.set_ylabel("variance / (D/omega)")
    ax2.set_ylim(0.9, 1.1)
    fig.tight_layout()
    fig.savefig("demo01_oscillating_packet.png", dpi=130)
    print("wrote demo01_oscillating_packet.png")
except ImportError:
    pass
