"""Command-line front end.

Subcommands:
    run      execute one feedback-loop run, write diagnostics (and optional
             density snapshots) as CSV
    compare  run the feedback loop and the wave-equation reference solver
             from the same initial state and report their L2 density distance
    sweep    repeat a run across one parameter's values, one summary row each
    presets  list the bundled experiment presets

Exit codes: 0 completed, 1 usage error, 2 run diverged early, 3 comparison
exceeded tolerance.  The default output directory is taken from the
QFLUID_OUT environment variable when --out is not given.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .core import PhysicalParams, RunConfig, SpatialGrid, make_grid
from .diagnostics import RunRecord, l2_density_distance
from .integrator import run
from .presets import PRESETS, default_grid, default_params, preset, preset_names
from .reference import run_reference

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_COMPARISON = 3

_ESTIMATOR_FLAGS = {
    "gauss": "gaussian_fit",
    "fd": "finite_difference",
    "oracle": "oracle_exact",
    "none": "none",
}
_NOISE_FLAGS = {"none": "none", "initial": "initial", "per-step": "per_step"}

# keys accepted in a config file (flat `key = value` lines); identical to the
# corresponding command-line flags
_CONFIG_KEYS = (
    "preset", "steps", "dt", "dx", "n", "D", "omega", "a", "kp",
    "estimator", "noise", "seed", "snapshot_every", "out", "tol",
)


# `compare` without a preset runs the closed-form force for the 16 steps its
# 5% tolerance is set for; over 64 steps the first-order Lax-Friedrichs
# error at dx = dt = 1 exceeds it.
_COMPARE_BASE = RunConfig(estimator="oracle_exact", steps=16)


class UsageError(Exception):
    pass


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _build_scenario(args, base=RunConfig()) -> tuple[PhysicalParams, RunConfig, SpatialGrid, str, float]:
    """Resolve preset (else the default scenario run with config ``base``),
    config file, and flags (in increasing precedence)."""
    file_values = _read_config_file(args.config) if args.config else {}

    preset_name = args.preset or file_values.get("preset")
    if preset_name:
        try:
            params, config, grid = preset(preset_name)
        except ValueError as err:
            raise UsageError(str(err)) from None
    else:
        params, config, grid = default_params(), base, default_grid()

    def pick(flag_name, cast):
        flag = getattr(args, flag_name.replace("-", "_"), None)
        if flag is not None:
            return cast(flag)
        if flag_name in file_values:
            try:
                return cast(file_values[flag_name])
            except ValueError as err:
                raise UsageError(f"config key {flag_name}: {err}") from None
        return None

    physical = {key: pick(key, float) for key in ("D", "omega", "a", "kp")}
    physical = {key: value for key, value in physical.items() if value is not None}
    if physical:
        try:
            params = replace(params, **physical)
        except ValueError as err:
            raise UsageError(str(err)) from None

    dx = pick("dx", float)
    n = pick("n", int)
    if dx is not None or n is not None:
        dx = dx if dx is not None else grid.dx
        n = n if n is not None else grid.n
        try:
            grid = make_grid(-0.5 * n * dx, dx, n)
        except ValueError as err:
            raise UsageError(str(err)) from None

    overrides = {}
    for key, cast in (
        ("steps", int), ("dt", float), ("seed", int), ("snapshot_every", int),
    ):
        value = pick(key, cast)
        if value is not None:
            overrides[key] = value
    estimator = pick("estimator", str)
    if estimator is not None:
        if estimator not in _ESTIMATOR_FLAGS:
            raise UsageError(
                f"unknown estimator {estimator!r}; choose from {sorted(_ESTIMATOR_FLAGS)}"
            )
        overrides["estimator"] = _ESTIMATOR_FLAGS[estimator]
    noise = pick("noise", str)
    if noise is not None:
        if noise not in _NOISE_FLAGS:
            raise UsageError(f"unknown noise mode {noise!r}; choose from {sorted(_NOISE_FLAGS)}")
        overrides["noise"] = _NOISE_FLAGS[noise]
    if overrides:
        try:
            config = replace(config, **overrides)
        except ValueError as err:
            raise UsageError(str(err)) from None

    out = args.out or file_values.get("out") or os.environ.get("QFLUID_OUT") or "./out"
    tol = pick("tol", float)
    if tol is None:
        tol = 0.05
    return params, config, grid, out, tol


def _print_config(params, config, grid, out, tol):
    flag_estimator = {v: k for k, v in _ESTIMATOR_FLAGS.items()}[config.estimator]
    flag_noise = {v: k for k, v in _NOISE_FLAGS.items()}[config.noise]
    for key, value in (
        ("D", _fmt(params.D)), ("omega", _fmt(params.omega)), ("a", _fmt(params.a)),
        ("kp", _fmt(params.kp)), ("M", _fmt(params.M)),
        ("dx", _fmt(grid.dx)), ("n", str(grid.n)), ("x0", _fmt(grid.x0)),
        ("dt", _fmt(config.dt)), ("steps", str(config.steps)),
        ("estimator", flag_estimator), ("noise", flag_noise),
        ("noise_target", config.noise_target), ("seed", str(config.seed)),
        ("snapshot_every", str(config.snapshot_every)),
        ("boundary_damping", str(config.boundary_damping).lower()),
        ("out", out), ("tol", _fmt(tol)),
    ):
        print(f"{key} = {value}")


def _write_diagnostics(record: RunRecord, path: Path) -> None:
    lines = ["step,t,mean,var,mass,max_abs_V,center_energy,status"]
    for i in range(len(record.t)):
        lines.append(
            f"{i},{_fmt(record.t[i])},{_fmt(record.mean[i])},{_fmt(record.var[i])},"
            f"{_fmt(record.mass[i])},{_fmt(record.max_abs_V[i])},"
            f"{_fmt(record.center_energy[i])},{record.status[i]}"
        )
    path.write_text("\n".join(lines) + "\n")


def _write_snapshots(record: RunRecord, out_dir: Path) -> None:
    x = record.grid.positions
    for step in sorted(record.snapshots):
        rho, V = record.snapshots[step]
        lines = ["j,x,rho,V"]
        for j in range(len(x)):
            lines.append(f"{j},{_fmt(x[j])},{_fmt(rho[j])},{_fmt(V[j])}")
        (out_dir / f"snapshot_{step:06d}.csv").write_text("\n".join(lines) + "\n")


def _cmd_run(args) -> int:
    params, config, grid, out, _ = _build_scenario(args)
    if args.print_config:
        _print_config(params, config, grid, out, 0.05)
        return EXIT_OK
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = run(config, params, grid)
    _write_diagnostics(record, out_dir / "diagnostics.csv")
    if config.snapshot_every > 0:
        _write_snapshots(record, out_dir)
    print(
        f"steps_survived={record.steps_survived} status={record.final_status} "
        f"max_center_error={_fmt(record.max_center_error)} "
        f"max_dispersion_error={_fmt(record.max_var_error)}"
    )
    print(f"diagnostics written to {out_dir / 'diagnostics.csv'}")
    if record.final_status != "ok":
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_compare(args) -> int:
    params, config, grid, out, tol = _build_scenario(args, _COMPARE_BASE)
    if args.print_config:
        _print_config(params, config, grid, out, tol)
        return EXIT_OK
    config = replace(config, snapshot_every=1)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)

    record_fb = run(config, params, grid)
    record_ref = run_reference(params, grid, dt=config.dt, steps=config.steps)
    steps, dist = l2_density_distance(record_fb, record_ref)

    lines = ["step,t,l2_distance"]
    for s, d in zip(steps, dist):
        lines.append(f"{s},{_fmt(record_fb.t[s])},{_fmt(d)}")
    (out_dir / "compare.csv").write_text("\n".join(lines) + "\n")

    worst = float(np.max(dist)) if len(dist) else float("nan")
    ok = record_fb.final_status == "ok" and len(dist) == config.steps + 1 and worst <= tol
    print(f"max_l2_distance={_fmt(worst)} tol={_fmt(tol)} -> {'PASS' if ok else 'FAIL'}")
    print(f"series written to {out_dir / 'compare.csv'}")
    if record_fb.final_status != "ok":
        return EXIT_DIVERGED
    return EXIT_OK if ok else EXIT_COMPARISON


_SWEEPABLE = ("D", "omega", "a", "kp", "dt", "steps", "seed", "noise-amplitude")


def _sweep_point(params, config, name, value):
    """The (params, config) of one sweep point; raises UsageError naming the
    point if the value is invalid for its parameter."""
    try:
        if name in ("steps", "seed"):
            if not value.is_integer():
                raise ValueError(f"{name} must be an integer")
            value = int(value)
        if name in ("D", "omega", "a", "kp"):
            return replace(params, **{name: value}), config
        return params, replace(config, **{name.replace("-", "_"): value})
    except ValueError as err:
        raise UsageError(f"sweep point {name}={value:g}: {err}") from None


def _run_sweep_point(params, config, grid):
    record = run(config, params, grid)
    return record.steps_survived, record.max_center_error, record.max_var_error, record.final_status


def _cmd_sweep(args) -> int:
    params, config, grid, out, _ = _build_scenario(args)
    if args.param not in _SWEEPABLE:
        raise UsageError(f"cannot sweep {args.param!r}; choose from {_SWEEPABLE}")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as err:
        raise UsageError(f"bad sweep values: {err}") from None
    if not values:
        raise UsageError("empty sweep range")
    points = [_sweep_point(params, config, args.param, v) for v in values]

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=min(8, len(values))) as pool:
        results = list(pool.map(lambda point: _run_sweep_point(*point, grid), points))

    lines = ["param,value,steps_survived,max_center_error,max_var_error,status"]
    for value, (survived, ce, de, status) in zip(values, results):
        lines.append(f"{args.param},{_fmt(value)},{survived},{_fmt(ce)},{_fmt(de)},{status}")
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_OK


def _cmd_presets(_args) -> int:
    for name in preset_names():
        params, config, grid = preset(name)
        doc = re.split(r"\.(?:\s|$)", PRESETS[name].__doc__ or "", maxsplit=1)[0]
        doc = " ".join(doc.split())
        print(
            f"{name}: estimator={config.estimator} noise={config.noise} kp={params.kp:g} "
            f"dt={config.dt:g} steps={config.steps} n={grid.n}\n    {doc}"
        )
    return EXIT_OK


def _add_scenario_flags(sub):
    sub.add_argument("--preset", help="named experiment preset (see `qfluid presets`)")
    sub.add_argument("--config", help="flat key = value config file; flags override it")
    sub.add_argument("--steps", type=int, help="number of loop iterations")
    sub.add_argument("--dt", type=float, help="time step")
    sub.add_argument("--dx", type=float, help="grid spacing")
    sub.add_argument("--n", type=int, help="number of grid points (grid stays centered on 0)")
    sub.add_argument("--D", type=float, help="generalized quantum constant")
    sub.add_argument("--omega", type=float, help="trap angular frequency")
    sub.add_argument("--a", type=float, help="packet oscillation amplitude")
    sub.add_argument("--kp", type=float, help="pressure amplitude (squared sound speed)")
    sub.add_argument("--estimator", choices=sorted(_ESTIMATOR_FLAGS), help="quantum-force estimator")
    sub.add_argument("--noise", choices=sorted(_NOISE_FLAGS), help="density noise mode")
    sub.add_argument("--seed", type=int, help="RNG seed")
    sub.add_argument("--snapshot-every", type=int, dest="snapshot_every",
                     help="write a density snapshot every k steps (0 = off)")
    sub.add_argument("--out", help="output directory (default $QFLUID_OUT or ./out)")
    sub.add_argument("--tol", type=float, help="comparison tolerance (compare only)")
    sub.add_argument("--print-config", action="store_true",
                     help="print the resolved settings and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfluid",
        description="Quantum-like fluid laboratory: feedback-loop runs, "
        "wave-equation cross-checks, and parameter sweeps.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="execute one feedback-loop run")
    _add_scenario_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = subs.add_parser("compare", help="feedback loop vs wave-equation reference")
    _add_scenario_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = subs.add_parser("sweep", help="repeat a run across one parameter")
    _add_scenario_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, help=f"one of {_SWEEPABLE}")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_list = subs.add_parser("presets", help="list bundled presets")
    p_list.set_defaults(func=_cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage problems; the contract here is 1
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
