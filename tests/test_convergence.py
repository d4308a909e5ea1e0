"""Observed order of convergence: refining dx = dt = 1/k over the same time
window must shrink each error by the scheme's order, whatever its size.

The Lax-Friedrichs fluid is first order in its density (its L2 distance to
the Crank-Nicolson reference halves with dx = dt), while the packet center,
a symmetric moment of that density, converges at second order.
"""

import math

import pytest

import qfluid as qf
from qfluid.presets import default_grid, default_params

T = 16
KS = (1, 2, 4)


def _errors(estimator):
    """(max L2 density distance to CN, max relative center error) at each k."""
    params = default_params()
    l2, center = [], []
    for k in KS:
        grid = default_grid(1.0 / k, 192 * k)
        config = qf.RunConfig(dt=1.0 / k, steps=T * k, estimator=estimator)
        rows, final_status = qf.cross_check(config, params, grid)
        assert final_status == "ok" and len(rows) == config.steps + 1
        l2.append(max(dist for _, _, dist in rows))
        center.append(qf.run(config, params, grid).max_center_error)
    return l2, center


def _orders(errors):
    """log2 of each successive error ratio: the order observed when halving."""
    return [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]


@pytest.mark.parametrize("estimator", ["oracle_exact", "gaussian_fit"])
def test_density_is_first_order_and_center_second_order(estimator):
    l2, center = _errors(estimator)
    for order in _orders(l2):
        assert 0.9 <= order <= 1.1, (l2, _orders(l2))
    for order in _orders(center):
        assert 1.9 <= order <= 2.1, (center, _orders(center))
