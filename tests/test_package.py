"""The package surface: each module lists its own public names in its
``__all__``, and ``qfluid`` exports exactly those."""

import qfluid as qf

MODULES = (qf.core, qf.diagnostics, qf.forces, qf.integrator, qf.oracle, qf.presets, qf.reference)

PUBLIC_NAMES = [
    "CNOperator", "DegenerateDensityError", "FluidState", "Moments", "NonFiniteDensityError",
    "OracleWave", "PhysicalParams", "RunConfig", "RunRecord", "SpatialGrid", "build_force_field",
    "center_energy_estimate", "cn_operator", "cn_step", "cross_check", "default_grid",
    "default_params", "density_distance", "drift_kick_step", "external_force",
    "fd_quantum_force", "fluid_to_wave", "gaussian_fit_force",
    "init_coherent_state", "make_grid", "mass", "moments", "preset", "preset_names", "pressure_force",
    "run", "smoothness", "trajectory", "wave_trajectory",
]


def test_the_package_exports_its_public_names_once():
    assert len(set(qf.__all__)) == len(qf.__all__)
    assert sorted(qf.__all__) == PUBLIC_NAMES


def test_each_public_name_has_one_home_module():
    for name in qf.__all__:
        homes = [module for module in MODULES if name in module.__all__]
        assert len(homes) == 1, (name, [module.__name__ for module in homes])
        assert getattr(qf, name) is getattr(homes[0], name)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from qfluid import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qf.__all__)
