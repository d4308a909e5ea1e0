"""Per-layer metrics of a traced run, computed from its spans.

Names without `self_` are the whole span (the call and what it calls);
names with `self_` subtract the wrapped calls made inside it.  Per-step
figures divide by the loop steps of the runs involved; per-pass figures are
means over the passes whose spans were kept.  A layer the workload never
calls reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import POOL_SPAN, Span

FIGS = tuple(f"fig{k}" for k in range(1, 8))

# The calls the fluid loop and the reference make to measure and record a
# step (moments, mass, center energy, smoothness), as opposed to the force.
RECORD_PATH = ("forces.moments", "core.mass", "diagnostics.center_energy_estimate", "diagnostics.smoothness")
SOLVER_SITES = ("integrator", "reference")

PER_LAYER = (
    ("integrator.run.self_us_per_step", "us"),
    ("integrator.build_force_field.self_us_per_call", "us"),
    ("forces.moments.calls_per_step", "calls/step"),
    ("forces.moments.us_per_call", "us"),
    ("forces.gaussian_fit_force.us_per_call", "us"),
    ("forces.fd_quantum_force.us_per_call", "us"),
    ("forces.pressure_force.us_per_call", "us"),
    ("forces.external_force.us_per_call", "us"),
    ("core.mass.calls_per_step", "calls/step"),
    ("core.mass.us_per_call", "us"),
    ("diagnostics.center_energy_estimate.self_us_per_call", "us"),
    ("diagnostics.smoothness.self_us_per_call", "us"),
    ("diagnostics.record_share", "fraction"),
    ("diagnostics.l2_density_distance.us", "us"),
    ("oracle.force.us_per_call", "us"),
    ("reference.cn_step.us_per_call", "us"),
    ("reference.wave_to_fluid.us_per_call", "us"),
    ("reference.run_reference.self_us_per_step", "us"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.sweep.overlap", "fraction"),
    ("cli.sweep.point_us_per_step", "us"),
    *((f"integrator.run.{fig}.us_per_step", "us") for fig in FIGS),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.spans_per_pass", "count"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    spans: list[Span],
    traced_wall: float,
    untraced_wall: float,
    remainders: list[float],
    bytes_per_pass: int,
) -> dict[str, float]:
    """`remainders` has one entry per pass whose spans are given; the walls
    are the fastest traced and untraced passes."""
    calls: dict[str, int] = defaultdict(int)
    dur: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    record = 0.0
    for s in spans:
        calls[s.name] += 1
        dur[s.name] += s.dur
        self_s[s.name] += s.self_s
        work[s.name] += s.work
        if s.name in RECORD_PATH and s.site in SOLVER_SITES:
            record += s.dur

    passes = len(remainders)
    fluid_steps = work["integrator.run"]
    cn_steps = work["reference.run_reference"]
    loop_steps = fluid_steps + cn_steps
    us = 1e6

    def us_per_call(name: str, own: bool = False) -> float:
        return us * _ratio((self_s if own else dur)[name], calls[name])

    m = {
        "integrator.run.self_us_per_step": us * _ratio(self_s["integrator.run"], fluid_steps),
        "integrator.build_force_field.self_us_per_call": us_per_call("integrator.build_force_field", own=True),
        "forces.moments.calls_per_step": _ratio(calls["forces.moments"], loop_steps),
        "forces.moments.us_per_call": us_per_call("forces.moments"),
        "core.mass.calls_per_step": _ratio(calls["core.mass"], loop_steps),
        "core.mass.us_per_call": us_per_call("core.mass"),
        "diagnostics.center_energy_estimate.self_us_per_call": us_per_call(
            "diagnostics.center_energy_estimate", own=True),
        "diagnostics.smoothness.self_us_per_call": us_per_call("diagnostics.smoothness", own=True),
        "diagnostics.record_share": _ratio(record, dur["integrator.run"] + dur["reference.run_reference"]),
        "diagnostics.l2_density_distance.us": us_per_call("diagnostics.l2_density_distance"),
        "oracle.force.us_per_call": us_per_call("oracle.force"),
        "reference.cn_step.us_per_call": us_per_call("reference.cn_step"),
        "reference.wave_to_fluid.us_per_call": us_per_call("reference.wave_to_fluid"),
        "reference.run_reference.self_us_per_step": us * _ratio(self_s["reference.run_reference"], cn_steps),
        "cli.self_s": _ratio(
            sum(v for k, v in self_s.items() if k.startswith("cli.") and k != POOL_SPAN), passes),
        "cli.bytes_written": float(bytes_per_pass),
    }
    for name in ("gaussian_fit_force", "fd_quantum_force", "pressure_force", "external_force"):
        m[f"forces.{name}.us_per_call"] = us_per_call(f"forces.{name}")

    pool_runs = [s for s in spans if s.name == "integrator.run" and not s.main_thread]
    sweep_wall = sum(s.dur for s in spans if s.name == "cli.main" and s.label == "sweep")
    m["cli.sweep.overlap"] = _ratio(sum(s.dur for s in pool_runs), sweep_wall) if pool_runs else 0.0
    m["cli.sweep.point_us_per_step"] = us * _ratio(sum(s.dur for s in pool_runs), sum(s.work for s in pool_runs))
    for fig in FIGS:
        runs = [s for s in spans if s.name == "integrator.run" and s.label == fig]
        m[f"integrator.run.{fig}.us_per_step"] = us * _ratio(sum(s.dur for s in runs), sum(s.work for s in runs))

    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.traced_wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.remainder_s"] = statistics.fmean(remainders)
    m["trace.spans_per_pass"] = _ratio(len(spans), passes)
    return {name: m[name] for name, _ in PER_LAYER}
