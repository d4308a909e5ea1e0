"""Command-line interface: subcommands, exit codes, file formats."""

import subprocess
import sys
import tracemalloc
import warnings
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

import qfluid as qf
import qfluid.reference as reference
from qfluid.cli import _SWEEPABLE, _build_scenario, build_parser, main


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_run_fig1_writes_full_diagnostics(tmp_path, capsys):
    code = main(["run", "--preset", "fig1", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "diagnostics.csv")
    assert header == ["step", "t", "mean", "var", "mass", "max_abs_V", "center_energy", "status"]
    assert len(rows) == 78  # 77 steps + initial state
    assert rows[0][0] == "0" and rows[-1][0] == "77"
    assert all(row[-1] in ("ok", "cfl_warning") for row in rows)


def test_run_fig6_completes(tmp_path):
    code = main(["run", "--preset", "fig6", "--out", str(tmp_path)])
    assert code == 0
    _, rows = read_csv(tmp_path / "diagnostics.csv")
    assert len(rows) - 1 >= 16


def test_diverged_run_exits_2_with_partial_rows(tmp_path, capsys):
    # only the dt = 1e200 run may raise numpy's RuntimeWarning, of its overflow;
    # under the suite's filter one from the other runs is an error
    for case, (argv, steps, status, overflows) in enumerate((
        (["--estimator", "none", "--steps", "200"], 8, "diverged_dispersion", False),
        (["--preset", "fig6", "--dt", "0.1", "--steps", "40"], 9, "diverged_dispersion", False),  # past the ripple limit
        (["--dt", "1e200", "--steps", "3"], 0, "diverged_nonfinite", True),  # the first drift overflows ln rho
    )):
        out = tmp_path / str(case)
        with warnings.catch_warnings():
            if overflows:
                warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["run", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith(f"steps_survived={steps} status={status} ")
        _, rows = read_csv(out / "diagnostics.csv")
        assert [row[0] for row in rows] == [str(step) for step in range(steps + 1)]


def test_run_snapshots_written(tmp_path):
    code = main(["run", "--steps", "10", "--snapshot-every", "5", "--out", str(tmp_path)])
    assert code == 0
    snaps = sorted(p.name for p in tmp_path.glob("snapshot_*.csv"))
    assert snaps == ["snapshot_000000.csv", "snapshot_000005.csv", "snapshot_000010.csv"]
    header, rows = read_csv(tmp_path / "snapshot_000005.csv")
    assert header == ["j", "x", "rho", "V"]
    assert len(rows) == 192


def test_compare_passes_at_default_tolerance(tmp_path, capsys):
    code = main(["compare", "--steps", "16", "--tol", "0.05", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    header, rows = read_csv(tmp_path / "compare.csv")
    assert header == ["step", "t", "l2_distance"]
    assert len(rows) == 17
    assert max(float(r[2]) for r in rows) <= 0.05


def test_bare_compare_runs_the_16_step_window_and_passes(tmp_path, capsys):
    code = main(["compare", "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(" -> PASS")  # an ok compare names no status
    _, rows = read_csv(tmp_path / "compare.csv")
    assert len(rows) == 17


def test_compare_over_a_full_period_exceeds_the_tolerance(tmp_path, capsys):
    # at dx = dt = 1 the first-order Lax-Friedrichs error outgrows 5% by step 64
    code = main(["compare", "--steps", "64", "--out", str(tmp_path)])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


def test_compare_fails_at_tiny_tolerance(tmp_path, capsys):
    code = main(["compare", "--steps", "16", "--tol", "1e-9", "--out", str(tmp_path)])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


def test_the_parser_is_built_once_and_answers_alike_every_time(capsys):
    assert build_parser() is build_parser()
    helps = []
    for argv in (["--help"], ["run", "--help"], ["run", "--bogus", "1"], ["--help"], ["run", "--help"]):
        main(argv)
        helps.append(capsys.readouterr())
    assert helps[3:] == helps[:2]


def test_compare_reports_feedback_divergence(tmp_path, capsys):
    code = main(["compare", "--estimator", "none", "--steps", "100", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().out.splitlines()[0].endswith(" -> FAIL status=diverged_dispersion")


@pytest.mark.parametrize("argv, expected_code", [
    ([], 0),
    (["--preset", "fig5"], 3),
    (["--preset", "fig7"], 3),
    (["--preset", "fig6", "--dt", "0.1", "--steps", "40"], 2),  # the fluid diverges at step 9
    # a pressure run's first 16 steps, the reference's log term Strang-split,
    # on +-96 cells and on +-192, whose tails take the exact log phase
    (["--preset", "fig5", "--steps", "16"], 0),
    (["--preset", "fig5", "--n", "384", "--steps", "16"], 0),
])
def test_compare_streams_the_distances_the_snapshot_records_give(tmp_path, capsys, argv, expected_code):
    # compare steps both solvers in lockstep and keeps no snapshot; its
    # column must equal, bit for bit, the distances between full records
    assert main(["compare", *argv, "--out", str(tmp_path)]) == expected_code
    assert ("-> PASS" in capsys.readouterr().out) == (expected_code == 0)
    scenario = _build_scenario(build_parser().parse_args(["compare", *argv]))
    params, config, grid = scenario.params, scenario.config, scenario.grid
    snapshots = qf.run(replace(config, snapshot_every=1), params, grid).snapshots
    expected = [
        (step, qf.density_distance(snapshots[step][0], rho))
        for step, _, rho in qf.wave_trajectory(
            config, params, grid, qf.fluid_to_wave(qf.init_coherent_state(params, grid), grid, params)
        )
        if step in snapshots
    ]
    _, rows = read_csv(tmp_path / "compare.csv")
    assert [(int(r[0]), float(r[2])) for r in rows] == expected


def test_compare_fig2_starts_both_solvers_from_the_noisy_state(tmp_path, capsys):
    # the loop smooths the initial noise away in one step and the wave
    # equation does not, so the rows after step 0 still exceed the tolerance
    assert main(["compare", "--preset", "fig2", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().out.splitlines()[0].endswith(" -> FAIL")
    _, rows = read_csv(tmp_path / "compare.csv")
    assert len(rows) == 65
    assert float(rows[0][2]) <= 1e-15


def test_compare_ends_with_the_reference_and_names_its_status(tmp_path, capsys, monkeypatch):
    # every tridiagonal solve returns NaN, so the reference goes non-finite
    # at step 1 while the closed-form-force fluid runs on
    def solve(plan, r):
        r[:] = np.nan

    monkeypatch.setattr(reference, "_solve", solve)
    assert main(["compare", "--out", str(tmp_path)]) == 2
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.endswith(" -> FAIL status=reference_diverged_nonfinite")
    _, rows = read_csv(tmp_path / "compare.csv")
    assert [row[0] for row in rows] == ["0"]


def test_compare_memory_does_not_grow_with_the_steps(tmp_path):
    def peak(steps):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        code = main(["compare", "--n", "2048", "--dx", "0.09375", "--dt", "0.09375", "--steps", str(steps),
                     "--out", str(tmp_path)])
        assert code == 0
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        peak(8)  # fills the caches outside the measurement
        short, long = peak(8), peak(64)
    finally:
        tracemalloc.stop()
    assert long / short < 1.5


def test_sweep_rows_follow_input_order(tmp_path, capsys):
    code = main(
        ["sweep", "--param", "kp", "--values", "0,1,5", "--steps", "24", "--out", str(tmp_path)]
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert [float(r[1]) for r in rows] == [0.0, 1.0, 5.0]
    # the pressure-free run holds its width best
    var_errors = [float(r[4]) for r in rows]
    assert var_errors[0] == min(var_errors)


def test_sweep_single_point_matches_run_summary(tmp_path):
    code = main(["sweep", "--param", "D", "--values", "25.132741228718345",
                 "--steps", "16", "--out", str(tmp_path)])
    assert code == 0
    _, sweep_rows = read_csv(tmp_path / "sweep.csv")
    code = main(["run", "--D", "25.132741228718345", "--steps", "16",
                 "--out", str(tmp_path / "single")])
    assert code == 0
    _, run_rows = read_csv(tmp_path / "single" / "diagnostics.csv")
    assert int(sweep_rows[0][2]) == len(run_rows) - 1


def test_sweep_over_kp_turns_the_sponge_on_as_fig5_does(tmp_path, capsys):
    # kp = 1 at dt = 1/4 over 160 steps is fig5, absorbing strip included
    code = main(["sweep", "--param", "kp", "--values", "0,1", "--dt", "0.25", "--steps", "160",
                 "--out", str(tmp_path / "sweep")])
    assert code == 0
    _, rows = read_csv(tmp_path / "sweep" / "sweep.csv")
    assert [row[2] for row in rows] == ["160", "160"]
    capsys.readouterr()
    assert main(["run", "--preset", "fig5", "--out", str(tmp_path / "fig5")]) == 0
    assert f"max_center_error={rows[1][3]} " in capsys.readouterr().out


# a value for each sweepable name, differing from fig1's (fig2's for the noise)
_ONE_POINT_SWEEPS = {"D": "20", "omega": "0.09", "a": "6", "kp": "1", "dt": "0.5", "steps": "12",
                     "seed": "3", "noise-amplitude": "0.5"}


@pytest.mark.parametrize("param", _SWEEPABLE)
def test_a_one_point_sweep_row_is_the_run_with_that_value(tmp_path, param):
    text = _ONE_POINT_SWEEPS[param]
    name = "fig2" if param in ("seed", "noise-amplitude") else "fig1"
    assert main(["sweep", "--preset", name, "--param", param, "--values", text, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "sweep.csv")
    params, config, grid = qf.preset(name)
    key = param.replace("-", "_")
    value = int(text) if key in ("steps", "seed") else float(text)
    base = qf.run(config, params, grid)
    if hasattr(params, key):
        params = replace(params, **{key: value})
    else:
        config = replace(config, **{key: value})
    rec = qf.run(config, params, grid)

    def summary(r):
        return [r.steps_survived, r.max_center_error, r.max_var_error, r.final_status]

    assert summary(rec) != summary(base)  # the value is one the row can tell apart
    assert [rows[0][0], float(rows[0][1])] == [param, value]
    assert [int(rows[0][2]), float(rows[0][3]), float(rows[0][4]), rows[0][5]] == summary(rec)


def test_sweep_print_config_prints_the_run_settings_and_runs_nothing(tmp_path, capsys):
    # every setting run reads but the snapshot cadence, which sweep does not read
    scenario = ["--preset", "fig5", "--steps", "2", "--out", str(tmp_path)]
    assert main(["run", *scenario, "--print-config"]) == 0
    printed = capsys.readouterr().out
    assert "snapshot_every = 0\n" in printed
    assert main(["sweep", "--param", "kp", "--values", "1", *scenario, "--print-config"]) == 0
    assert capsys.readouterr().out == printed.replace("snapshot_every = 0\n", "")
    assert list(tmp_path.iterdir()) == []


# The refusal contract.  cli.main takes its stages in this order: the parser;
# the settings (a preset, config file, flag or sweep point it cannot use);
# --print-config; the output directory; the run's start.  Every refusal exits
# 1 with one message on stderr, prints nothing and creates nothing.  A parser
# or settings refusal refuses --print-config alike; an output or run-start
# refusal comes after it, so --print-config prints the config and exits 0.
PARSER, SETTINGS, OUTPUT, RUN_START = "parser", "settings", "output", "run start"

# argv: the words after `qfluid`, to which `--out {out}` is added.  {cfg} is
# the config file, written from `config` (text, bytes, or None for no file),
# {out} the output directory and {tmp} the test's directory.  err: the message
# after "error: ", or for the parser the line argparse writes under its
# usage.  layout: "file", "under-file" or "dangling-link" puts {out} at or
# under a non-directory.  warns: the warnings the refused command gives first.
# shows: lines --print-config prints besides `out`.
_Refusal = namedtuple("_Refusal", "argv stage err config layout warns shows", defaults=(None, None, (), ()))


def _flags(argv, flag, value, stage, err, **row):
    """``argv`` with ``flag value`` and with ``flag=value``, refused alike."""
    return [_Refusal(f"{argv} {flag} {value}", stage, err, **row),
            _Refusal(f"{argv} {flag}={value}", stage, err, **row)]


def _sources(argv, key, value, stage, err, **row):
    """``argv`` with ``key = value`` from each source, refused alike: the
    flag, flag=value and a config file."""
    return [*_flags(argv, f"--{key.replace('_', '-')}", value, stage, err, **row),
            _Refusal(f"{argv} --config {{cfg}}", stage, err, config=f"{key} = {value}\n", **row)]


def _unread(argv, key, reader):
    """``argv`` with ``key``, which its command does not read, from each
    source; a value the reader could not parse is refused by name too."""
    command, flag = argv.split()[0], f"--{key.replace('_', '-')}"
    rows = []
    for value in ("0", "1", "x"):
        rows += _flags(argv, flag, value, SETTINGS, f"{flag} is read by {reader} only, not by {command}")
        rows.append(_Refusal(f"{argv} --config {{cfg}}", SETTINGS,
                             f"{{cfg}}:2: {key} is read by {reader} only, not by {command}",
                             config=f"steps = 4\n{key} = {value}\n"))
    return rows


_ESTIMATOR_WORDS = "['fd', 'gauss', 'none', 'oracle']"
_NOISE_WORDS = "['initial', 'measurement', 'none', 'per-step']"
_SWEEP = "sweep --param kp --values 0,1"
_DEGENERATE = "degenerate initial density: density variance 0 below (1.0/10)^2; distribution is delta-like"

_REFUSALS = [
    _Refusal("run --frobnicate 1", PARSER, "qfluid: error: unrecognized arguments: --frobnicate 1"),
    _Refusal("run --bogus 1", PARSER, "qfluid: error: unrecognized arguments: --bogus 1"),
    # only a sweep sets the noise amplitude
    _Refusal("run --noise-amplitude 0.5", PARSER, "qfluid: error: unrecognized arguments: --noise-amplitude 0.5"),
    *_flags("run", "--steps", "4.0", PARSER, "qfluid run: error: argument --steps: invalid int value: '4.0'"),
    *_flags("run", "--estimator", "bogus", PARSER,
            f"qfluid run: error: argument --estimator: unknown value 'bogus'; choose from {_ESTIMATOR_WORDS}"),
    *_flags("run", "--noise", "bogus", PARSER,
            f"qfluid run: error: argument --noise: unknown value 'bogus'; choose from {_NOISE_WORDS}"),
    # a config file it cannot read, by line
    _Refusal("run --config {cfg}", SETTINGS,
             "cannot read config file {cfg}: [Errno 2] No such file or directory: '{cfg}'"),
    _Refusal("run --config {cfg}", SETTINGS, "cannot read config file {cfg}: 'utf-8' codec can't decode byte 0xff "
             "in position 0: invalid start byte", config=b"\xff\xfe"),
    _Refusal("run --config {cfg}", SETTINGS, "{cfg}:1: expected `key = value`, got 'steps 4'", config="steps 4\n"),
    _Refusal("run --config {cfg}", SETTINGS, "{cfg}:2: steps: invalid literal for int() with base 10: 'x'",
             config="# a comment\nsteps = x\n"),
    _Refusal("run --config {cfg}", SETTINGS, "{cfg}:1: steps: invalid literal for int() with base 10: '4.0'",
             config="steps = 4.0\n"),
    _Refusal("run --config {cfg}", SETTINGS, f"{{cfg}}:1: estimator: unknown value 'bogus'; choose from "
             f"{_ESTIMATOR_WORDS}", config="estimator = bogus\n"),
    _Refusal("run --config {cfg}", SETTINGS, f"{{cfg}}:1: noise: unknown value 'bogus'; choose from {_NOISE_WORDS}",
             config="noise = bogus\n"),
    _Refusal("run --config {cfg}", SETTINGS, "{cfg}:2: steps is already set on line 1",
             config="steps = 3\nsteps = 4\n"),
    _Refusal("run --config {cfg}", SETTINGS, "{cfg}:1: unknown key 'banana'", config="banana = 3\n"),
    _Refusal("run --config {cfg}", SETTINGS, "{cfg}:1: unknown key 'noise_amplitude'", config="noise_amplitude = 1\n"),
    # a setting the command does not read: only run writes snapshots, so
    # only run offers the flag, 0 included
    *_unread("run", "tol", "compare"),
    *_unread("compare", "snapshot_every", "run"),
    *_unread(_SWEEP, "tol", "compare"),
    *_unread(_SWEEP, "snapshot_every", "run"),
    # a value its preset, dataclass or tolerance refuses
    *_sources("run", "preset", "fig99", SETTINGS,
              "unknown preset 'fig99'; available: fig1, fig2, fig3, fig4, fig5, fig6, fig7"),
    *_sources("run", "steps", "0", SETTINGS, "steps must be >= 1, got 0"),
    *_sources("run", "seed", "-1", SETTINGS, "seed must be non-negative, got -1"),
    *_sources("run", "dt", "0", SETTINGS, "dt must be positive, got 0.0"),
    *_sources("run", "dt", "nan", SETTINGS, "dt must be finite, got nan"),
    *_sources("run", "snapshot_every", "-1", SETTINGS, "snapshot_every must be >= 0, got -1"),
    *_sources("run", "kp", "inf", SETTINGS, "kp must be finite, got inf"),
    *_sources("run", "n", "6", SETTINGS, "need at least 7 grid points, got n=6"),
    *(row for tol in ("nan", "inf", "-1")
      for row in _sources("compare", "tol", tol, SETTINGS, f"tol must be finite and non-negative, got {tol}")),
    # the forces square D, omega and dx, and a Python float's x ** 2 raises
    # OverflowError where numpy would give inf
    *_sources("run", "D", "1e155", SETTINGS, "D is too large to square, got 1e+155"),
    *_sources("run --dx 1e-300", "omega", "1e200", SETTINGS, "omega is too large to square, got 1e+200"),
    *_sources("run", "dx", "1e160", SETTINGS, "grid x0, dx and dx^2 must be finite, got x0=-9.6e+161, dx=1e+160"),
    # the solvers divide by dx^2: at dx = 1e-160, dx^2 is subnormal and
    # D/dx^2 overflows; at dx = 1e153, the default grid's end positions
    # square to inf
    *(row for command in ("run", "compare") for dx, err in (
        ("1e-300", "grid spacing is too small to square, got dx=1e-300"),
        ("1e-160", "grid spacing is too small to square, got dx=1e-160"),
        ("1e153", "grid positions are too large to square, got x0=-9.599999999999999e+154, dx=1e+153, n=192"),
    ) for row in _sources(command, "dx", dx, SETTINGS, err)),
    # a sweep's parameter and points, each value read and checked as its flag
    # would be
    *(row for values in ("1,2", "x") for row in _flags(
        f"sweep --values {values}", "--param", "M", SETTINGS,
        "cannot sweep 'M'; choose from ('D', 'omega', 'a', 'kp', 'dt', 'steps', 'seed', 'noise-amplitude')")),
    _Refusal("sweep --param kp --values=", SETTINGS, "empty sweep range"),
    *_flags("sweep --param kp", "--values", ",", SETTINGS, "empty sweep range"),
    *_flags("sweep --param kp", "--values", "1,x", SETTINGS,
            "sweep point kp=x: could not convert string to float: 'x'"),
    *_flags("sweep --param D", "--values", "1,-1", SETTINGS, "sweep point D=-1: D must be positive, got -1.0"),
    *_flags("sweep --param D", "--values", "25,-1", SETTINGS, "sweep point D=-1: D must be positive, got -1.0"),
    *_flags("sweep --param D", "--values", "1e155", SETTINGS,
            "sweep point D=1e155: D is too large to square, got 1e+155"),
    *_flags("sweep --param steps", "--values", "2.5", SETTINGS,
            "sweep point steps=2.5: invalid literal for int() with base 10: '2.5'"),
    *_flags("sweep --param seed", "--values", "1.5", SETTINGS,
            "sweep point seed=1.5: invalid literal for int() with base 10: '1.5'"),
    *_flags("sweep --param seed", "--values", "-1", SETTINGS, "sweep point seed=-1: seed must be non-negative, got -1"),
    *_flags("sweep --param noise-amplitude", "--values", "-1", SETTINGS,
            "sweep point noise-amplitude=-1: noise_amplitude must be non-negative, got -1.0"),
    # an output directory that is, or lies under, an existing non-directory
    *(_Refusal(argv, OUTPUT, f"cannot write to {{out}}: {{tmp}}/{blocker} is not a directory", layout=layout)
      for argv in ("run --steps 2", "compare --steps 2", f"{_SWEEP} --steps 2")
      for layout, blocker in (("file", "afile"), ("under-file", "afile"), ("dangling-link", "link"))),
    # the run's start: a packet narrower than a cell (at D = 0.0005, sigma =
    # sqrt(D/omega) ~ 0.07 cells, and the initial density is one spike),
    # per-step noise, which only the fluid would carry, so compare's solvers
    # would not integrate the same problem, and a packet off the grid, whose
    # start state holds no mass
    *(row for command in ("run", "compare")
      for row in _sources(command, "D", "0.0005", RUN_START, _DEGENERATE, shows=("D = 0.00050000000000000001",))),
    *_flags("sweep --param D", "--values", "25,0.0005", RUN_START, _DEGENERATE),
    *_sources("compare --preset fig2", "noise", "per-step", RUN_START,
              "cannot cross-check noise = per_step: the wave equation carries no noise", shows=("noise = per-step",)),
    *_sources("run", "a", "1000", RUN_START, "start state's mass must be finite and positive, got 0.0",
              warns=("coherent packet (center 1000, sigma 16) does not fit within +/-5 sigma of the grid [-96, 95]",),
              shows=("a = 1000",)),
]


def _refusal_id(row):
    return " ".join(filter(None, (row.argv, row.config and repr(row.config), row.layout)))


def _usage(prog):
    """The usage lines argparse writes above an error of ``prog``."""
    parser = build_parser()
    for command in prog.split()[1:]:
        parser = parser._subparsers._group_actions[0].choices[command]
    return parser.format_usage()


def _tree(root):
    """Every path under ``root``, with the bytes of each file."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


def _main(capsys, argv):
    """The exit code, stdout, stderr and warnings of ``main(argv)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err, [str(warning.message) for warning in caught]


@pytest.mark.parametrize("row", _REFUSALS, ids=_refusal_id)
def test_a_refusal_names_its_cause_at_its_stage(tmp_path, capsys, row):
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    if row.layout:
        afile, link = tmp_path / "afile", tmp_path / "link"
        afile.write_text("kept\n")
        link.symlink_to(tmp_path / "missing")
        out = {"file": afile, "under-file": afile / "out", "dangling-link": link}[row.layout]
    if isinstance(row.config, bytes):
        cfg.write_bytes(row.config)
    elif row.config is not None:
        cfg.write_text(row.config)
    argv = [*(word.format(cfg=cfg) for word in row.argv.split()), "--out", str(out)]
    err = row.err.format(cfg=cfg, out=out, tmp=tmp_path)
    err = f"{_usage(err.split(': error: ')[0])}{err}\n" if row.stage == PARSER else f"error: {err}\n"
    before = _tree(tmp_path)
    assert _main(capsys, argv) == (1, "", err, list(row.warns))
    printed = _main(capsys, [*argv, "--print-config"])
    if row.stage in (PARSER, SETTINGS):
        assert printed == (1, "", err, [])
    else:
        code, config, refused, warned = printed
        assert (code, refused, warned) == (0, "", [])
        assert {f"out = {out}", *row.shows} <= set(config.splitlines())
    assert _tree(tmp_path) == before


def test_a_flag_the_command_does_not_read_is_not_offered(capsys):
    assert main(["run", "--help"]) == 0
    assert "--tol" not in capsys.readouterr().out


def test_an_amplitude_whose_square_overflows_is_refused_in_one_line(tmp_path):
    # the energies square a.  At a = 1e300 the packet's positions used to
    # overflow: a warning that it does not fit the grid, two numpy warnings,
    # and a refusal as a degenerate initial density.  Warnings reach the
    # console only, so it runs in its own process.
    argv = ["run", "--a", "1e300", "--steps", "2", "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-m", "qfluid", *argv], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: a is too large to square, got 1e+300\n"
    assert not (tmp_path / "out").exists()


def test_print_config_lists_defaults(capsys):
    code = main(["run", "--print-config"])
    assert code == 0
    out = capsys.readouterr().out
    settings = dict(line.split(" = ") for line in out.strip().splitlines())
    assert settings["estimator"] == "gauss"
    assert settings["steps"] == "64"
    assert settings["n"] == "192"
    assert float(settings["omega"]) == pytest.approx(2 * np.pi / 64)


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 12\nkp = 1.0\n# comment line\nseed = 9\n")
    code = main(["run", "--config", str(cfg), "--kp", "0", "--print-config"])
    assert code == 0
    settings = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert settings["steps"] == "12"  # from file
    assert settings["kp"] == "0"  # flag wins
    assert settings["seed"] == "9"


def test_print_config_prints_the_resolved_tolerance(capsys):
    assert main(["compare", "--tol", "0.2", "--print-config"]) == 0
    assert "tol = 0.20000000000000001\n" in capsys.readouterr().out
    assert main(["run", "--print-config"]) == 0
    assert "tol = " not in capsys.readouterr().out


def test_print_config_comments_out_what_no_key_sets(capsys):
    assert main(["run", "--preset", "fig4", "--print-config"]) == 0
    comments = [line for line in capsys.readouterr().out.splitlines() if line.startswith("#")]
    assert comments == ["# x0 = -96", "# noise_amplitude = 1", "# boundary_damping = true"]


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("name", [None, "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"])
def test_printed_config_reads_back_to_the_same_settings(tmp_path, capsys, command, name):
    chosen = ["--preset", name] if name else []
    assert main([command, *chosen, "--out", str(tmp_path / "a"), "--print-config"]) == 0
    printed = capsys.readouterr().out
    cfg = tmp_path / "printed.cfg"
    cfg.write_text(printed)
    assert main([command, "--config", str(cfg), "--print-config"]) == 0
    assert capsys.readouterr().out == printed


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
def test_printed_config_reruns_the_preset(tmp_path, capsys, name):
    # also without its preset line: the printed keys alone are the run
    assert main(["run", "--preset", name, "--print-config"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith(f"preset = {name}\n")
    (tmp_path / "printed.cfg").write_text(printed)
    (tmp_path / "keys.cfg").write_text(printed.split("\n", 1)[1])
    assert main(["run", "--preset", name, "--out", str(tmp_path / "preset")]) == 0
    for cfg in ("printed.cfg", "keys.cfg"):
        assert main(["run", "--config", str(tmp_path / cfg), "--out", str(tmp_path / cfg[:-4])]) == 0
        rerun = (tmp_path / cfg[:-4] / "diagnostics.csv").read_bytes()
        assert rerun == (tmp_path / "preset" / "diagnostics.csv").read_bytes(), cfg


def test_outputs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["run", "--preset", "fig2", "--out", str(out)]) == 0
    assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()


def test_env_var_default_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QFLUID_OUT", str(tmp_path / "envout"))
    code = main(["run", "--steps", "5"])
    assert code == 0
    assert (tmp_path / "envout" / "diagnostics.csv").exists()


def test_presets_subcommand_lists_all(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"):
        assert name in out


def test_every_preset_completes_quickly(tmp_path):
    import time

    import qfluid as qf

    for name in qf.preset_names():
        t0 = time.perf_counter()
        code = main(["run", "--preset", name, "--out", str(tmp_path / name)])
        elapsed = time.perf_counter() - t0
        assert code == 0, name
        assert elapsed < 5.0, f"{name} took {elapsed:.1f}s"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qfluid", "presets"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "fig1" in proc.stdout


def test_importing_the_cli_leaves_scipy_unloaded(tmp_path):
    # nothing in qfluid imports scipy: not the CLI, and not compare's
    # Crank-Nicolson reference, on the default grid or on compare-fine's
    # (the benchmark's compare-fine command at 8 steps, within tolerance).
    # A noiseless run builds no random generator, so numpy.random stays
    # unloaded too, unless importing numpy alone loads it (older numpy)
    argvs = [
        ["compare", "--steps", "2", "--out", str(tmp_path / "bare")],
        ["compare", "--dx", "0.015625", "--dt", "0.015625", "--n", "12288", "--steps", "8",
         "--out", str(tmp_path / "fine")],
    ]
    script = (
        "import sys, numpy\n"
        "print('numpy.random preloaded:', 'numpy.random' in sys.modules)\n"
        "import qfluid.cli\n"
        "print('loaded:', 'scipy' in sys.modules, 'numpy.random' in sys.modules)\n"
        f"codes = [qfluid.cli.main(argv) for argv in {argvs!r}]\n"
        "print('loaded:', 'scipy' in sys.modules, 'numpy.random' in sys.modules, codes)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    preloaded, *loaded = [line for line in proc.stdout.splitlines() if "loaded:" in line]
    random = "True" if preloaded == "numpy.random preloaded: True" else "False"
    assert loaded == [f"loaded: False {random}", f"loaded: False {random} [0, 0]"]
