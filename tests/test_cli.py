"""Command-line interface: subcommands, exit codes, file formats."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import qfluid as qf
import qfluid.reference as reference
from qfluid.cli import _SWEEPABLE, build_parser, main
from qfluid.presets import default_grid, default_params


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


def test_run_rejects_zero_steps(tmp_path):
    assert main(["run", "--steps", "0", "--out", str(tmp_path)]) == 1


def test_run_rejects_unknown_preset(tmp_path):
    assert main(["run", "--preset", "fig99", "--out", str(tmp_path)]) == 1


def test_run_unknown_flag_is_usage_error(tmp_path):
    assert main(["run", "--frobnicate", "1", "--out", str(tmp_path)]) == 1


def test_diverged_run_exits_2_with_partial_rows(tmp_path):
    code = main(["run", "--estimator", "none", "--steps", "200", "--out", str(tmp_path)])
    assert code == 2
    _, rows = read_csv(tmp_path / "diagnostics.csv")
    assert 1 <= len(rows) < 201


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


@pytest.mark.parametrize("source", ["flag", "config file"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_compare_refuses_a_non_finite_or_negative_tolerance_before_any_run(tmp_path, capsys, tol, source):
    if source == "flag":
        chosen = ["--tol", tol]
    else:
        (tmp_path / "tol.cfg").write_text(f"tol = {tol}\n")
        chosen = ["--config", str(tmp_path / "tol.cfg")]
    out = tmp_path / "out"
    assert main(["compare", *chosen, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: tol ")
    assert not (out / "compare.csv").exists()
    assert main(["compare", *chosen, "--print-config"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, extra", [("compare", []), ("sweep", ["--param", "kp", "--values", "0,1"])])
def test_snapshot_every_is_refused_where_no_snapshot_is_written(tmp_path, capsys, command, extra):
    # only run writes snapshots, so only run offers the flag, 0 included
    out = tmp_path / "out"
    for every in ("0", "1"):
        assert main([command, *extra, "--snapshot-every", every, "--out", str(out)]) == 1
        assert "--snapshot-every" in capsys.readouterr().err
        assert not out.exists()
        assert main([command, *extra, "--snapshot-every", every, "--print-config"]) == 1
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("source", ["flag", "flag=value", "config file"])
@pytest.mark.parametrize("command, key, reader", [
    ("run", "tol", "compare"),
    ("compare", "snapshot_every", "run"),
    ("sweep", "tol", "compare"),
    ("sweep", "snapshot_every", "run"),
])
def test_a_setting_the_command_does_not_read_is_refused(tmp_path, capsys, command, key, reader, source):
    extra = ["--param", "kp", "--values", "0,1"] if command == "sweep" else []
    flag = f"--{key.replace('_', '-')}"
    # a value the reading command could not parse is refused by name too,
    # not by a parse error of a setting the command never reads
    for value in ("1", "x"):
        if source.startswith("flag"):
            chosen = [flag, value] if source == "flag" else [f"{flag}={value}"]
            named = f"error: {flag} is read by {reader} only, not by {command}\n"
        else:
            (tmp_path / "other.cfg").write_text(f"steps = 4\n{key} = {value}\n")
            chosen, named = ["--config", str(tmp_path / "other.cfg")], f"{key} is read by {reader} only"
        out = tmp_path / "out"
        assert main([command, *extra, *chosen, "--out", str(out)]) == 1
        refused = capsys.readouterr()
        assert refused.out == "" and named in refused.err
        assert not out.exists()


def test_an_unknown_flag_is_refused_and_an_unread_one_is_not_offered(capsys):
    assert main(["run", "--bogus", "1"]) == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["run", "--help"]) == 0
    assert "--tol" not in capsys.readouterr().out


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
    (["--preset", "fig6", "--dt", "0.1", "--steps", "40"], 2),
])
def test_compare_streams_the_distances_the_snapshot_records_give(tmp_path, capsys, argv, expected_code):
    # compare steps both solvers in lockstep and keeps no snapshot; its
    # column must equal, bit for bit, the distances between full records
    assert main(["compare", *argv, "--out", str(tmp_path)]) == expected_code
    if argv:
        params, config, grid = qf.preset(argv[1])
        if len(argv) > 2:
            config = replace(config, dt=0.1, steps=40)
    else:  # compare's own base scenario
        params, grid = default_params(), default_grid()
        config = qf.RunConfig(estimator="oracle_exact", steps=16)
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


@pytest.mark.parametrize("source", ["flag", "config file"])
def test_compare_refuses_per_step_noise(tmp_path, capsys, source):
    # only the fluid would carry it, so the solvers would not compare like
    # with like; the config is still printable
    if source == "flag":
        chosen = ["--noise", "per-step"]
    else:
        (tmp_path / "noise.cfg").write_text("noise = per-step\n")
        chosen = ["--config", str(tmp_path / "noise.cfg")]
    out = tmp_path / "out"
    assert main(["compare", "--preset", "fig2", *chosen, "--out", str(out)]) == 1
    refused = capsys.readouterr()
    assert refused.out == ""
    assert refused.err.startswith("error: ") and "per_step" in refused.err
    assert not out.exists()
    assert main(["compare", "--preset", "fig2", *chosen, "--print-config"]) == 0
    assert "noise = per-step\n" in capsys.readouterr().out


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


def test_sweep_empty_range_is_usage_error(tmp_path):
    assert main(["sweep", "--param", "kp", "--values", "", "--out", str(tmp_path)]) == 1


def test_sweep_unknown_param_is_usage_error(tmp_path):
    assert main(["sweep", "--param", "M", "--values", "1,2", "--out", str(tmp_path)]) == 1


def test_sweep_invalid_point_is_usage_error_before_any_run(tmp_path, capsys):
    assert main(["sweep", "--param", "D", "--values", "1,-1", "--out", str(tmp_path)]) == 1
    assert "error: sweep point D=-1" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("param, value", [("steps", "2.5"), ("seed", "1.5")])
def test_sweep_rejects_non_integer_steps_and_seed(tmp_path, capsys, param, value):
    assert main(["sweep", "--param", param, "--values", value, "--out", str(tmp_path)]) == 1
    assert f"error: sweep point {param}={value}" in capsys.readouterr().err


def test_sweep_print_config_prints_the_run_settings_and_runs_nothing(tmp_path, capsys):
    # every setting run reads but the snapshot cadence, which sweep does not read
    scenario = ["--preset", "fig5", "--steps", "2", "--out", str(tmp_path)]
    assert main(["run", *scenario, "--print-config"]) == 0
    printed = capsys.readouterr().out
    assert "snapshot_every = 0\n" in printed
    assert main(["sweep", "--param", "kp", "--values", "1", *scenario, "--print-config"]) == 0
    assert capsys.readouterr().out == printed.replace("snapshot_every = 0\n", "")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sweep, error", [
    (["--param", "M", "--values", "x"], "error: cannot sweep 'M'"),
    (["--param", "kp", "--values", "1,x"], "error: sweep point kp=x: "),
    (["--param", "D", "--values", "25,-1"], "error: sweep point D=-1: "),
    (["--param", "seed", "--values=-1"], "error: sweep point seed=-1: seed must be non-negative, got -1\n"),
], ids=["param", "values", "point", "seed"])
def test_sweep_print_config_refuses_what_the_sweep_refuses(tmp_path, capsys, sweep, error):
    out = ["--out", str(tmp_path)]
    assert main(["sweep", *sweep, *out]) == 1
    refused = capsys.readouterr()
    assert refused.out == "" and refused.err.startswith(error)
    assert main(["sweep", *sweep, *out, "--print-config"]) == 1
    assert capsys.readouterr() == refused


@pytest.mark.parametrize("argv, error", [
    (["run", "--D", "1e155"], "error: D is too large to square"),
    (["sweep", "--param", "D", "--values", "1e155"], "error: sweep point D=1e155: D is too large to square"),
    (["run", "--omega", "1e200", "--dx", "1e-300"], "error: omega is too large to square"),
    (["run", "--dx", "1e160"], "error: grid x0, dx and dx^2 must be finite"),
], ids=["run-D", "sweep-D", "run-omega", "run-dx"])
def test_a_finite_value_whose_square_overflows_is_refused(tmp_path, capsys, argv, error):
    # the forces square D, omega and dx, and a Python float's x ** 2 raises
    # OverflowError where numpy would give inf
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(error)
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_dx_whose_square_underflows_is_refused(tmp_path, capsys, command):
    # the solvers divide by dx^2: compare used to raise ZeroDivisionError and
    # run to stop at step 0 as a divergence.  At dx = 1e-160, dx^2 is
    # subnormal and D/dx^2 overflows: both used to warn from numpy and end
    # as a divergence, as they did at dx = 1e153, whose default grid's end
    # positions square to inf
    for dx, error in (
        ("1e-300", "error: grid spacing is too small to square, got dx=1e-300\n"),
        ("1e-160", "error: grid spacing is too small to square, got dx=1e-160\n"),
        ("1e153", "error: grid positions are too large to square, "
                  "got x0=-9.599999999999999e+154, dx=1e+153, n=192\n"),
    ):
        assert main([command, "--dx", dx, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == error
        assert not (tmp_path / "out").exists()


# sigma = sqrt(D/omega) ~ 0.07 cells: the initial density is one spike
_SUB_CELL_D = "0.0005"


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_packet_narrower_than_a_cell_is_refused(tmp_path, capsys, command):
    assert main([command, "--D", _SUB_CELL_D, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: degenerate initial density: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_sweep_point_narrower_than_a_cell_is_refused(tmp_path, capsys):
    assert main(["sweep", "--param", "D", "--values", f"25,{_SUB_CELL_D}", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: degenerate initial density: ")
    assert not (tmp_path / "sweep.csv").exists()


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


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("banana = 3\n")
    assert main(["run", "--config", str(cfg)]) == 1


_ESTIMATOR_WORDS = "['fd', 'gauss', 'none', 'oracle']"
_NOISE_WORDS = "['initial', 'measurement', 'none', 'per-step']"


@pytest.mark.parametrize("text, error", [
    (None, "cannot read config file {cfg}: [Errno 2] No such file or directory: '{cfg}'"),
    ("steps 4\n", "{cfg}:1: expected `key = value`, got 'steps 4'"),
    ("# a comment\nsteps = x\n", "{cfg}:2: steps: invalid literal for int() with base 10: 'x'"),
    ("estimator = bogus\n", f"{{cfg}}:1: estimator: unknown value 'bogus'; choose from {_ESTIMATOR_WORDS}"),
    ("noise = bogus\n", f"{{cfg}}:1: noise: unknown value 'bogus'; choose from {_NOISE_WORDS}"),
    (b"\xff\xfe", "cannot read config file {cfg}: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte"),
    ("steps = 3\nsteps = 4\n", "{cfg}:2: steps is already set on line 1"),
], ids=["missing", "no-equals", "unparseable", "estimator", "noise", "not-utf-8", "twice"])
def test_a_config_file_it_cannot_read_is_refused_by_line(tmp_path, capsys, text, error):
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    elif text is not None:
        cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    refused = capsys.readouterr()
    assert refused.out == "" and refused.err == f"error: {error.format(cfg=cfg)}\n"
    assert not out.exists()


@pytest.mark.parametrize("layout", ["file", "under-file", "dangling-link"])
@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_an_output_directory_that_cannot_be_made_is_refused_before_the_run(tmp_path, capsys, command, layout):
    afile, link = tmp_path / "afile", tmp_path / "link"
    afile.write_text("kept\n")
    link.symlink_to(tmp_path / "missing")
    out, blocker = {"file": (afile, afile), "under-file": (afile / "out", afile), "dangling-link": (link, link)}[layout]
    sweep = ["--param", "kp", "--values", "0,1"] if command == "sweep" else []
    assert main([command, "--steps", "2", *sweep, "--out", str(out)]) == 1
    refused = capsys.readouterr()
    assert refused.out == ""
    assert refused.err == f"error: cannot write to {out}: {blocker} is not a directory\n"
    assert afile.read_text() == "kept\n" and not (tmp_path / "missing").exists()


@pytest.mark.parametrize("flag, words", [("--estimator", _ESTIMATOR_WORDS), ("--noise", _NOISE_WORDS)],
                         ids=["estimator", "noise"])
def test_an_unknown_estimator_or_noise_word_is_refused_by_the_parser(tmp_path, capsys, flag, words):
    out = tmp_path / "out"
    assert main(["run", flag, "bogus", "--out", str(out)]) == 1
    refused = capsys.readouterr()
    assert refused.out == ""
    assert refused.err.splitlines()[-1] == f"qfluid run: error: argument {flag}: unknown value 'bogus'; choose from {words}"
    assert not out.exists()


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
    # Crank-Nicolson reference, on the default grid or on compare-fine's.
    # A noiseless run builds no random generator, so numpy.random stays
    # unloaded too, unless importing numpy alone loads it (older numpy)
    argvs = [
        ["compare", "--steps", "2", "--out", str(tmp_path / "bare")],
        ["compare", "--dx", "0.015625", "--dt", "0.015625", "--n", "12288", "--steps", "2",
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
