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
import math
import os
import sys
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import PhysicalParams, RunConfig, SpatialGrid
from .forces import DegenerateDensityError
from .integrator import run, sponge_active
from .presets import PRESETS, default_grid, default_params, preset, preset_names
from .reference import cross_check

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
_NOISE_FLAGS = {
    "none": "none", "initial": "initial", "per-step": "per_step", "measurement": "measurement",
}


# `compare` without a preset runs the closed-form force for the 16 steps its
# 5% tolerance is set for; over 64 steps the first-order Lax-Friedrichs
# error at dx = dt = 1 exceeds it.
_COMPARE_BASE = RunConfig(estimator="oracle_exact", steps=16)


class UsageError(Exception):
    pass


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _choice(flags: dict[str, str]):
    """(parse, show) between the flag words of ``flags`` and their values."""

    def parse(text: str) -> str:
        if text not in flags:
            raise argparse.ArgumentTypeError(f"unknown value {text!r}; choose from {sorted(flags)}")
        return flags[text]

    return parse, {value: word for word, value in flags.items()}.__getitem__


_FLOAT = (float, _fmt)
_INT = (int, str)
_TEXT = (str, str)
_BOOL = (None, lambda value: str(value).lower())


# One table of settings.  `key` is the config-file key and, with "-" for
# "_", the flag; `home` names where the resolved value lives ("params",
# "grid", "config" or "scenario"); `kind` is the (parse, show) pair between
# text and value; `commands` are the commands that read it, and the only ones
# that offer, accept and print it.  A setting without `help` is resolved but
# cannot be set: --print-config shows it as a comment.
_Setting = namedtuple("_Setting", "key home kind help commands",
                      defaults=(None, ("run", "compare", "sweep")))
_SETTINGS = (
    _Setting("preset", "scenario", _TEXT, "named experiment preset (see `qfluid presets`)"),
    _Setting("D", "params", _FLOAT, "generalized quantum constant"),
    _Setting("omega", "params", _FLOAT, "trap angular frequency"),
    _Setting("a", "params", _FLOAT, "packet oscillation amplitude"),
    _Setting("kp", "params", _FLOAT, "pressure amplitude (squared sound speed)"),
    _Setting("dx", "grid", _FLOAT, "grid spacing"),
    _Setting("n", "grid", _INT, "number of grid points (grid stays centered on 0)"),
    _Setting("x0", "grid", _FLOAT),
    _Setting("dt", "config", _FLOAT, "time step"),
    _Setting("steps", "config", _INT, "number of loop iterations"),
    _Setting("estimator", "config", _choice(_ESTIMATOR_FLAGS),
             f"quantum-force estimator: {', '.join(sorted(_ESTIMATOR_FLAGS))}"),
    _Setting("noise", "config", _choice(_NOISE_FLAGS),
             f"density noise mode: {', '.join(sorted(_NOISE_FLAGS))}"),
    _Setting("noise_amplitude", "config", _FLOAT),
    _Setting("seed", "config", _INT, "RNG seed"),
    _Setting("snapshot_every", "config", _INT, "write a density snapshot every k steps (0 = off)", ("run",)),
    _Setting("boundary_damping", "scenario", _BOOL),
    _Setting("out", "scenario", _TEXT, "output directory (default $QFLUID_OUT or ./out)"),
    _Setting("tol", "scenario", _FLOAT, "comparison tolerance", ("compare",)),
)
_SETTING = {setting.key: setting for setting in _SETTINGS}


@dataclass(frozen=True)
class _Scenario:
    """A resolved scenario: what to run, where to write, what to accept."""

    params: PhysicalParams
    config: RunConfig
    grid: SpatialGrid
    preset: str | None
    out: str
    tol: float = 0.05

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and non-negative, got {_fmt(self.tol)}")

    @property
    def boundary_damping(self) -> bool:
        return sponge_active(self.params, self.config)


def _refuse_unread(setting: _Setting, command: str, where: str) -> None:
    """Refuse ``setting``, named as ``where``, unless ``command`` reads it."""
    if command not in setting.commands:
        raise UsageError(f"{where} is read by {' and '.join(setting.commands)} only, not by {command}")


def _read_config_file(path: str, command: str) -> dict:
    """Parsed values of a flat `key = value` file, by key; every key must be
    a setting ``command`` reads."""
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
        setting = _SETTING.get(key)
        if not (setting and setting.help):
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        _refuse_unread(setting, command, f"{path}:{lineno}: {key}")
        try:
            values[key] = setting.kind[0](value)
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise UsageError(f"{path}:{lineno}: {key}: {err}") from None
    return values


def _apply(scenario: _Scenario, values: dict) -> _Scenario:
    """``scenario`` with each setting in ``values`` replaced in its home; a
    value its home refuses raises ValueError."""
    homes = {"params": {}, "grid": {}, "config": {}, "scenario": {}}
    for key, value in values.items():
        homes[_SETTING[key].home][key] = value
    params, grid = replace(scenario.params, **homes["params"]), scenario.grid
    if homes["grid"]:
        grid = default_grid(**{"dx": grid.dx, "n": grid.n, **homes["grid"]})
    return replace(scenario, params=params, grid=grid, config=replace(scenario.config, **homes["config"]),
                   **homes["scenario"])


def _build_scenario(args) -> _Scenario:
    """Resolve preset (else the command's default scenario), config file,
    and flags (in increasing precedence)."""
    values = _read_config_file(args.config, args.command) if args.config else {}
    for key, value in vars(args).items():
        if key in _SETTING and value is not None:
            _refuse_unread(_SETTING[key], args.command, f"--{key.replace('_', '-')}")
            values[key] = value
    name = values.pop("preset", None) or None
    out = values.pop("out", None) or os.environ.get("QFLUID_OUT") or "./out"
    base = _COMPARE_BASE if args.command == "compare" else RunConfig()
    try:
        params, config, grid = preset(name) if name else (default_params(), base, default_grid())
        return _apply(_Scenario(params, config, grid, name, out), values)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _print_config(scenario: _Scenario, command: str) -> None:
    """Print the settings ``command`` reads as a config file that reruns
    them; the values no key can set are comments."""
    for setting in _SETTINGS:
        home = scenario if setting.home == "scenario" else getattr(scenario, setting.home)
        value = getattr(home, setting.key)
        if value is not None and command in setting.commands:
            comment = "" if setting.help else "# "
            print(f"{comment}{setting.key} = {setting.kind[1](value)}")


def _write_csv(path: Path, header: str, *columns) -> str:
    """Write ``columns`` side by side under ``header`` to ``path``, creating
    its directory; floats are written with ``_fmt``.  Returns the text."""
    cells = []
    for column in columns:
        if isinstance(column, np.ndarray):
            column = column.tolist()
        cells.append([_fmt(v) if isinstance(v, float) else str(v) for v in column])
    text = "\n".join([header, *map(",".join, zip(*cells))]) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return text


def _cmd_run(scenario: _Scenario, _args) -> int:
    out_dir = Path(scenario.out)
    record = run(scenario.config, scenario.params, scenario.grid)
    _write_csv(out_dir / "diagnostics.csv", "step,t,mean,var,mass,max_abs_V,center_energy,status",
               range(len(record.t)), record.t, record.mean, record.var, record.mass,
               record.max_abs_V, record.center_energy, record.status)
    x = record.grid.positions
    for step in sorted(record.snapshots):
        rho, V = record.snapshots[step]
        _write_csv(out_dir / f"snapshot_{step:06d}.csv", "j,x,rho,V", range(len(x)), x, rho, V)
    print(
        f"steps_survived={record.steps_survived} status={record.final_status} "
        f"max_center_error={_fmt(record.max_center_error)} "
        f"max_dispersion_error={_fmt(record.max_var_error)}"
    )
    print(f"diagnostics written to {out_dir / 'diagnostics.csv'}")
    if record.final_status != "ok":
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_compare(scenario: _Scenario, _args) -> int:
    """Write the rows of ``cross_check`` and judge the worst distance
    against the tolerance."""
    out_dir = Path(scenario.out)
    rows, final_status = cross_check(scenario.config, scenario.params, scenario.grid)
    steps, t, dist = zip(*rows)
    _write_csv(out_dir / "compare.csv", "step,t,l2_distance", steps, t, dist)

    worst = float(np.max(dist))
    ok = final_status == "ok" and worst <= scenario.tol
    status = "" if final_status == "ok" else f" status={final_status}"
    print(f"max_l2_distance={_fmt(worst)} tol={_fmt(scenario.tol)} -> {'PASS' if ok else 'FAIL'}{status}")
    print(f"series written to {out_dir / 'compare.csv'}")
    if final_status != "ok":
        return EXIT_DIVERGED
    return EXIT_OK if ok else EXIT_COMPARISON


_SWEEPABLE = ("D", "omega", "a", "kp", "dt", "steps", "seed", "noise-amplitude")


def _sweep_points(scenario: _Scenario, args) -> tuple[list, list[_Scenario]]:
    """The swept values and the scenario of each, each value read and applied
    as its flag would be; raises UsageError on an unknown parameter, an empty
    range or a value its setting refuses."""
    if args.param not in _SWEEPABLE:
        raise UsageError(f"cannot sweep {args.param!r}; choose from {_SWEEPABLE}")
    setting = _SETTING[args.param.replace("-", "_")]
    values, points = [], []
    for text in filter(None, (v.strip() for v in args.values.split(","))):
        try:
            values.append(setting.kind[0](text))
            points.append(_apply(scenario, {setting.key: values[-1]}))
        except ValueError as err:
            raise UsageError(f"sweep point {args.param}={text}: {err}") from None
    if not values:
        raise UsageError("empty sweep range")
    return values, points


def _cmd_sweep(scenario: _Scenario, args) -> int:
    values, points = _sweep_points(scenario, args)
    with ThreadPoolExecutor(max_workers=min(8, len(points))) as pool:
        records = list(pool.map(lambda point: run(point.config, point.params, point.grid), points))
    text = _write_csv(
        Path(scenario.out) / "sweep.csv",
        "param,value,steps_survived,max_center_error,max_var_error,status",
        [args.param] * len(values), values,
        [rec.steps_survived for rec in records], [rec.max_center_error for rec in records],
        [rec.max_var_error for rec in records], [rec.final_status for rec in records],
    )
    print(text, end="")
    return EXIT_OK


def _cmd_presets() -> int:
    for name in preset_names():
        params, config, grid = preset(name)
        print(
            f"{name}: estimator={config.estimator} noise={config.noise} kp={params.kp:g} "
            f"dt={config.dt:g} steps={config.steps} n={grid.n}\n    {PRESETS[name][0]}"
        )
    return EXIT_OK


def _add_scenario_flags(sub, command: str):
    sub.add_argument("--config", help="flat key = value config file; flags override it")
    for setting in _SETTINGS:
        if setting.help:  # a flag the command does not read is kept as text, only to be refused by name
            reads = command in setting.commands
            sub.add_argument(f"--{setting.key.replace('_', '-')}", dest=setting.key,
                             type=setting.kind[0] if reads else str,
                             help=setting.help if reads else argparse.SUPPRESS)
    sub.add_argument("--print-config", action="store_true",
                     help="print the resolved settings as a config file and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfluid",
        description="Quantum-like fluid laboratory: feedback-loop runs, "
        "wave-equation cross-checks, and parameter sweeps.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, func, help_text in (
        ("run", _cmd_run, "execute one feedback-loop run"),
        ("compare", _cmd_compare, "feedback loop vs wave-equation reference"),
        ("sweep", _cmd_sweep, "repeat a run across one parameter"),
    ):
        sub = subs.add_parser(command, help=help_text)
        _add_scenario_flags(sub, command)
        sub.set_defaults(func=func)
    subs.choices["sweep"].add_argument("--param", required=True, help=f"one of {_SWEEPABLE}")
    subs.choices["sweep"].add_argument("--values", required=True, help="comma-separated values")

    subs.add_parser("presets", help="list bundled presets")

    return parser


def main(argv=None) -> int:
    """Parse ``argv``, resolve the scenario (and check a sweep's points),
    answer --print-config, then hand the scenario to the command."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage problems; the contract here is 1
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    if args.command == "presets":
        return _cmd_presets()
    try:
        scenario = _build_scenario(args)
        if args.print_config:
            if args.command == "sweep":
                _sweep_points(scenario, args)
            _print_config(scenario, args.command)
            return EXIT_OK
        return args.func(scenario, args)
    except DegenerateDensityError as err:
        print(f"error: degenerate initial density: {err}", file=sys.stderr)
    except (UsageError, ValueError) as err:  # a ValueError here is a scenario the command refuses
        print(f"error: {err}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
