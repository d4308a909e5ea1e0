"""Observed order of convergence: refining dx = dt = 1/k over the same time
window must shrink each error by the scheme's order, whatever its size.

The Lax-Friedrichs fluid is first order in its density (its L2 distance to
the Crank-Nicolson reference, and to the exact packet, halves with dx = dt),
while the packet center, a symmetric moment of that density, converges at
second order.  That first order is almost all mass loss: the shape of the
density, normalised by its mass, converges to the exact packet at second
order, with no floor.
"""

import math

import numpy as np
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


def _oracle_errors(estimator):
    """Max over steps of the L2 distance of the fluid's density to the exact
    packet, as it is and divided by its mass, at each k in 1, 2, 4, 8."""
    params = default_params()
    oracle = qf.OracleWave(params)
    errors = []
    for k in (1, 2, 4, 8):
        grid = default_grid(1.0 / k, 192 * k)
        config = qf.RunConfig(dt=1.0 / k, steps=T * k, estimator=estimator)
        distances = []
        for _, state, _, m, _, _ in qf.trajectory(config, params, grid):
            exact, rho = oracle.density(grid.positions, state.t), np.exp(state.ln_rho)
            distances.append([qf.density_distance(exact, d, grid.dx) for d in (rho, rho / m)])
        assert len(distances) == config.steps + 1
        errors.append(np.max(distances, axis=0))
    raw, shape = zip(*errors)
    return raw, shape


@pytest.mark.parametrize("estimator", ["oracle_exact", "gaussian_fit"])
def test_density_shape_is_second_order_against_the_exact_packet(estimator):
    # the density itself is first order against the exact packet, as it is
    # against the CN reference; divided by its mass it is second order
    raw, shape = _oracle_errors(estimator)
    for order in _orders(raw):
        assert 0.9 <= order <= 1.1, (raw, _orders(raw))
    for order in _orders(shape):
        assert 1.9 <= order <= 2.1, (shape, _orders(shape))
