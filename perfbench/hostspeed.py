"""The host's speed, measured with reference loops that run no qfluid code.

On a shared VM the vCPUs slow down by up to about 1.8x for seconds to
minutes at a time, as other tenants load the host.  run.py measures the
speed just before and just after each timed pass and scales the pass to full
speed, so that a run's result does not depend on which phases it lands in.

Each workload has its own reference loop, because the slow phases do not
slow all code alike: interpreted Python and numpy on small arrays lose more
than numpy on arrays of 10^4 points.  Over 150 s of alternating calls, the
10th-to-90th percentile ratio of compare-fine's pass time was 1.45, that of
the large-array loop 1.38 and that of the small-array loop 1.67; scaling
compare-fine by the large-array loop cut its log-time deviation from 0.143
to 0.102, scaling it by the small-array loop did not cut it at all.

    python3 perfbench/hostspeed.py    # re-measure REFERENCE_S on a new host
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import solve_banded

_SMALL = np.linspace(-1.0, 1.0, 192)
_X = np.linspace(-96.0, 96.0, 12288)
_PSI = np.exp(-_X * _X / 8.0) * (1.0 + 0.0j)


def small_arrays() -> float:
    """Interpreted Python and numpy on 192-point arrays, as in presets."""
    acc = 0.0
    for _ in range(750):
        a = np.exp(-_SMALL * _SMALL)
        acc += float(np.dot(np.gradient(a), a))
        for j in range(20):
            acc += j * 1e-9
    return acc


def large_arrays() -> float:
    """Banded complex solves, moments and snapshot copies on 12288 points,
    as in compare-fine's Crank-Nicolson and fluid loops."""
    psi, snapshots, var = _PSI, [], 0.0
    for _ in range(12):
        potential = 0.5 * _X * _X + 0.1 * np.log(np.maximum(np.abs(psi) ** 2, 1e-30))
        ab = np.zeros((3, _X.size), dtype=complex)
        ab[0, 1:] = 0.01j
        ab[1, :] = 1.0 + 0.01j * potential
        ab[2, :-1] = 0.01j
        psi = solve_banded((1, 1), ab, psi - 0.01j * potential * psi)
        snapshots.append(psi.copy())
        rho = np.abs(psi) ** 2
        mass = rho.sum()
        center = (_X * rho).sum() / mass
        var = ((_X - center) ** 2 * rho).sum() / mass
    return var


LOOPS = {"presets": small_arrays, "sweep": small_arrays, "compare-fine": large_arrays}
# Seconds each loop takes at full speed on the 2-vCPU Xeon host the
# benchmark was tuned on (the fastest tenth of 400 calls, in the fastest of
# several calibrations): the unit the scaled times are given in.  The scaled
# times depend on these only as a common factor.
REFERENCE_S = {"small_arrays": 0.0088, "large_arrays": 0.0118}


def speed(workload: str) -> float:
    """The host's speed now, as a share of full speed, for this workload's
    kind of work: the loop's REFERENCE_S over the time it takes."""
    loop = LOOPS[workload]
    t0 = time.perf_counter()
    loop()
    return REFERENCE_S[loop.__name__] / (time.perf_counter() - t0)


def main() -> None:
    for loop in (small_arrays, large_arrays):
        loop()
        times = []
        for _ in range(400):
            t0 = time.perf_counter()
            loop()
            times.append(time.perf_counter() - t0)
        fastest_tenth = statistics.quantiles(times, n=10)[0]
        print(f"{loop.__name__}: fastest {min(times):.4f} s, fastest tenth {fastest_tenth:.4f} s, "
              f"median {statistics.median(times):.4f} s")


if __name__ == "__main__":
    main()
