"""Tests of the benchmark itself: every workload at a reduced length, the
checker's rejections, the tracer's bookkeeping, and BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer, additivity  # noqa: E402

import qfluid.cli  # noqa: E402
import qfluid.forces  # noqa: E402
import qfluid.integrator  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_each_workload_passes_at_reduced_length(workload, tmp_path):
    calls = wl.invocations(workload, 7, tmp_path, steps=3)
    verdict = wl.check_pass(wl.run_pass(calls))
    assert verdict.problems == [] and verdict.failed == 0
    assert verdict.runs == sum(c.runs for c in calls)
    assert len(verdict.sha256) == len(calls)
    if workload == "compare-fine":
        assert 0 < verdict.l2_err <= wl.L2_TOL
    else:
        assert verdict.center_err > 0


def test_inputs_come_from_the_seed():
    assert wl.draw_inputs(3) == wl.draw_inputs(3) != wl.draw_inputs(4)
    kp = wl.draw_inputs(3)["kp_values"]
    assert len(kp) == wl.SWEEP_POINTS and all(0 <= v < wl.SWEEP_KP_MAX for v in kp)


def _fig1(tmp_path, stdout, rc=0):
    inv = wl.invocations("presets", 0, tmp_path, steps=5)[0]
    inv.out.mkdir(parents=True)
    rows = "".join(f"{i},0,0,0,0,0,0,ok\n" for i in range(inv.steps + 1))
    (inv.out / "diagnostics.csv").write_text("step,t,mean,var,mass,max_abs_V,center_energy,status\n" + rows)
    return wl.check_pass([wl.Outcome(inv, rc, stdout)])


def test_checker_accepts_a_good_run(tmp_path):
    v = _fig1(tmp_path, "steps_survived=5 status=ok max_center_error=0.01 max_dispersion_error=0.02\n")
    assert v.failed == 0 and v.center_err == 0.01


@pytest.mark.parametrize("stdout, rc", [
    ("steps_survived=3 status=diverged_dispersion max_center_error=0.01 max_dispersion_error=0.01", 2),
    ("steps_survived=3 status=ok max_center_error=0.01 max_dispersion_error=0.01", 0),
    ("steps_survived=5 status=ok max_center_error=0.2 max_dispersion_error=0.01", 0),
    ("steps_survived=5 status=ok max_center_error=0.01 max_dispersion_error=0.06", 0),
])
def test_checker_rejects_diverged_or_out_of_tolerance_runs(tmp_path, stdout, rc):
    v = _fig1(tmp_path, stdout, rc)
    assert v.failed == 1 and v.problems


def test_checker_rejects_a_diverged_sweep_point(tmp_path):
    inv = wl.invocations("sweep", 0, tmp_path, steps=5)[0]
    inv.out.mkdir(parents=True)
    rows = [f"kp,{i},5,0.01,0.1,ok" for i in range(inv.runs - 1)] + ["kp,9,2,0.5,3,diverged_dispersion"]
    (inv.out / "sweep.csv").write_text("\n".join(["param,value,steps_survived,max_center_error,"
                                                  "max_var_error,status", *rows]) + "\n")
    v = wl.check_pass([wl.Outcome(inv, 0, "")])
    assert v.failed == 1 and v.runs == inv.runs


def test_checker_rejects_an_out_of_tolerance_comparison(tmp_path):
    inv = wl.invocations("compare-fine", 0, tmp_path, steps=2)[0]
    inv.out.mkdir(parents=True)
    (inv.out / "compare.csv").write_text("step,t,l2_distance\n0,0,0\n1,1,0.1\n2,2,0.2\n")
    v = wl.check_pass([wl.Outcome(inv, 0, "max_l2_distance=0.2 tol=0.05 -> PASS\n")])
    assert v.failed == 1 and v.l2_err is None


def test_tracer_restores_the_program_and_self_times_add_up(tmp_path):
    originals = (qfluid.cli.run, qfluid.integrator.moments, qfluid.forces.moments, qfluid.cli.ThreadPoolExecutor)
    calls = wl.invocations("sweep", 1, tmp_path, steps=4) + wl.invocations("presets", 1, tmp_path, steps=4)
    tracer = Tracer()
    tracer.install()
    try:
        assert qfluid.integrator.moments is not originals[1]
        walls = []
        for i in range(2):
            tracer.pass_id = i
            t0 = time.perf_counter()
            verdict = wl.check_pass(wl.run_pass(calls, lambda inv: setattr(tracer, "label", inv.label)))
            walls.append(time.perf_counter() - t0)
            assert verdict.failed == 0
    finally:
        tracer.uninstall()
    assert (qfluid.cli.run, qfluid.integrator.moments, qfluid.forces.moments,
            qfluid.cli.ThreadPoolExecutor) == originals
    remainders, gap = additivity(tracer.spans, walls)
    assert gap < 1e-6 and min(remainders) >= 0
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "integrator.run", "forces.moments", "core.mass", "cli.sweep.pool"} <= names
    pool_runs = [s for s in tracer.spans if s.name == "integrator.run" and not s.main_thread]
    assert len(pool_runs) == 2 * wl.SWEEP_POINTS and all(s.work == 4 for s in pool_runs)
    m = layers.per_layer(tracer.spans, min(walls), min(walls), remainders, 1)
    assert list(m) == [name for name, _ in layers.PER_LAYER]
    assert m["forces.moments.calls_per_step"] > 3 and m["integrator.run.fig7.us_per_step"] > 0


def test_host_speed_has_a_reference_loop_for_every_workload():
    import hostspeed

    for workload in wl.WORKLOADS:
        assert 0 < hostspeed.speed(workload) < 10


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(wl.GATED)
    assert set(wl.GATED) <= set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "presets", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0 and result.stdout == ""
