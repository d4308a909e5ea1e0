"""The benchmark's workloads: inputs drawn from a seed, one pass of CLI calls,
and the checks each pass's outputs must meet.

A pass is a list of `qfluid.cli.main` invocations run in order by one thread
(a closed loop: the next call starts when the previous one returns).  The
program receives only the generated argument values, never the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

WHY = {
    "presets": "the paper's seven experiments fig1..fig7 at n=192: every force path, "
    "cost set by per-call overhead and the per-step record path",
    "sweep": "fig6 over 8 kp values on the CLI's own thread pool: same step code as presets, "
    "plus GIL contention; where batched stepping must show",
    "compare-fine": "fluid vs Crank-Nicolson at dx=dt=1/64, n=12288: arithmetic-bound, "
    "the only workload that runs the reference solver and stores per-step snapshots",
}
WORKLOADS = tuple(WHY)
# The workloads BENCHMARK.json lists.  sweep stays runnable by hand; why it
# is left out is in run.py.
GATED = ("presets", "compare-fine")

PRESET_N = 192
# Steps each preset asks for; passed explicitly so the workload stays fixed
# even if a preset's default changes.
PRESET_STEPS = {"fig1": 77, "fig2": 64, "fig3": 25, "fig4": 320, "fig5": 160, "fig6": 800, "fig7": 1600}
NOISY_PRESETS = ("fig2", "fig3")
SWEEP_POINTS = 8
# fig6 stays stable over this whole pressure range at its dt.
SWEEP_KP_MAX = 3.0
FINE_DX = 0.015625
FINE_N = 12288
FINE_STEPS = 64

# Tolerances of the acceptance suite (criteria 1 and 7).
FIG1_TOL = 0.05
L2_TOL = 0.05

_RUN_LINE = re.compile(
    r"steps_survived=(\d+) status=(\S+) max_center_error=(\S+) max_dispersion_error=(\S+)"
)
_L2_LINE = re.compile(r"max_l2_distance=(\S+) ")


def draw_inputs(seed: int) -> dict:
    """Noise seeds for fig2/fig3 and the sweep's kp values, from one seed.

    The kp values are stratified, one uniform draw per eighth of
    [0, SWEEP_KP_MAX], so every seed covers the whole range."""
    rng = random.Random(seed)
    return {
        "fig2_seed": rng.randrange(2**31),
        "fig3_seed": rng.randrange(2**31),
        "kp_values": [SWEEP_KP_MAX * (i + rng.random()) / SWEEP_POINTS for i in range(SWEEP_POINTS)],
    }


@dataclass(frozen=True)
class Invocation:
    """One `qfluid.cli.main` call and what its outputs must show."""

    label: str
    argv: tuple[str, ...]
    out: Path
    steps: int
    runs: int  # solver runs the call performs, each counted in failed_frac
    cell_steps: int  # grid cells x loop steps; fluid and CN steps both count
    noise_free: bool


def invocations(workload: str, seed: int, out_root: Path, steps: int | None = None) -> list[Invocation]:
    """The calls of one pass.  `steps` shortens every run (for tests)."""
    inputs = draw_inputs(seed)
    out_root = Path(out_root)
    if workload == "presets":
        calls = []
        for name, k in PRESET_STEPS.items():
            k = k if steps is None else min(k, steps)
            argv = ["run", "--preset", name, "--n", str(PRESET_N), "--steps", str(k)]
            if name in NOISY_PRESETS:
                argv += ["--seed", str(inputs[f"{name}_seed"])]
            out = out_root / name
            calls.append(Invocation(name, (*argv, "--out", str(out)), out, k, 1, PRESET_N * k,
                                    name not in NOISY_PRESETS))
        return calls
    if workload == "sweep":
        k = PRESET_STEPS["fig6"] if steps is None else steps
        values = ",".join(repr(v) for v in inputs["kp_values"])
        out = out_root / "sweep"
        argv = ("sweep", "--preset", "fig6", "--n", str(PRESET_N), "--steps", str(k),
                "--param", "kp", "--values", values, "--out", str(out))
        return [Invocation("sweep", argv, out, k, SWEEP_POINTS, SWEEP_POINTS * PRESET_N * k, True)]
    if workload == "compare-fine":
        k = FINE_STEPS if steps is None else steps
        out = out_root / "compare"
        argv = ("compare", "--dx", repr(FINE_DX), "--dt", repr(FINE_DX), "--n", str(FINE_N),
                "--steps", str(k), "--out", str(out))
        return [Invocation("compare", argv, out, k, 1, 2 * FINE_N * k, True)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


@dataclass
class Outcome:
    """What one invocation returned: exit code (None if it raised) and stdout."""

    inv: Invocation
    rc: int | None
    stdout: str
    error: str = ""


def run_pass(calls: list[Invocation], on_call=None) -> list[Outcome]:
    """Run one pass through `qfluid.cli.main`, looked up at call time so that
    wrappers installed on the module are used; `on_call(inv)` runs first."""
    import qfluid.cli

    outcomes = []
    for inv in calls:
        if on_call is not None:
            on_call(inv)
        buf = io.StringIO()
        error = ""
        with contextlib.redirect_stdout(buf):
            try:
                rc = qfluid.cli.main(list(inv.argv))
            except Exception as err:  # a raising run is a failed run, not a crash
                rc, error = None, f"{type(err).__name__}: {err}"
        outcomes.append(Outcome(inv, rc, buf.getvalue(), error))
    return outcomes


@dataclass
class Verdict:
    """Checked result of one pass."""

    runs: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    center_err: float = 0.0  # max over the noise-free runs
    l2_err: float | None = None
    sha256: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0

    def fail(self, inv: Invocation, what: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(f"{inv.label}: {what}")


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _record_file(verdict: Verdict, inv: Invocation, path: Path) -> bool:
    if not path.is_file():
        verdict.fail(inv, f"missing {path.name}")
        return False
    data = path.read_bytes()
    verdict.sha256[f"{inv.label}/{path.name}"] = hashlib.sha256(data).hexdigest()
    verdict.bytes_written += len(data)
    return True


def _check_run(v: Verdict, o: Outcome) -> None:
    inv = o.inv
    m = _RUN_LINE.search(o.stdout)
    if o.rc != 0 or m is None:
        v.fail(inv, f"exit {o.rc} {o.error}".strip())
        return
    survived, status, ce, de = int(m[1]), m[2], float(m[3]), float(m[4])
    if status != "ok" or survived != inv.steps:
        v.fail(inv, f"status {status} after {survived}/{inv.steps} steps")
        return
    if inv.label == "fig1" and not (ce <= FIG1_TOL and de <= FIG1_TOL):
        v.fail(inv, f"center error {ce:g} / width error {de:g} above {FIG1_TOL}")
        return
    path = inv.out / "diagnostics.csv"
    if _record_file(v, inv, path):
        rows = _csv_rows(path)
        if len(rows) != inv.steps + 1 or rows[-1][0] != str(inv.steps):
            v.fail(inv, f"diagnostics.csv has {len(rows)} rows, expected {inv.steps + 1}")
            return
    if inv.noise_free:
        v.center_err = max(v.center_err, ce)


def _check_sweep(v: Verdict, o: Outcome) -> None:
    inv = o.inv
    path = inv.out / "sweep.csv"
    if o.rc != 0 or not _record_file(v, inv, path):
        v.fail(inv, f"exit {o.rc} {o.error}".strip(), inv.runs)
        return
    rows = _csv_rows(path)
    if len(rows) != inv.runs:
        v.fail(inv, f"sweep.csv has {len(rows)} rows, expected {inv.runs}", inv.runs)
        return
    for _, value, survived, ce, _, status in rows:
        if status != "ok" or int(survived) != inv.steps:
            v.fail(inv, f"kp={value}: status {status} after {survived}/{inv.steps} steps")
        else:
            v.center_err = max(v.center_err, float(ce))


def _check_compare(v: Verdict, o: Outcome) -> None:
    inv = o.inv
    m = _L2_LINE.search(o.stdout)
    path = inv.out / "compare.csv"
    if o.rc != 0 or m is None or not _record_file(v, inv, path):
        v.fail(inv, f"exit {o.rc} {o.error}".strip())
        return
    l2 = float(m[1])
    rows = _csv_rows(path)
    if not l2 <= L2_TOL or len(rows) != inv.steps + 1:
        v.fail(inv, f"L2 distance {l2:g} (tol {L2_TOL}) over {len(rows)} rows")
        return
    v.l2_err = l2


def check_pass(outcomes: list[Outcome]) -> Verdict:
    """Check every run the way the acceptance suite does; count failures."""
    v = Verdict()
    for o in outcomes:
        v.runs += o.inv.runs
        kind = o.inv.argv[0]
        {"run": _check_run, "sweep": _check_sweep, "compare": _check_compare}[kind](v, o)
    return v


def fine_center_err() -> float:
    """Max relative center error of compare-fine's fluid run, which the
    compare command does not print: the same run made through the API."""
    import qfluid as qf
    from qfluid.presets import default_params

    grid = qf.make_grid(-0.5 * FINE_N * FINE_DX, FINE_DX, FINE_N)
    config = qf.RunConfig(dt=FINE_DX, steps=FINE_STEPS, estimator="oracle_exact")
    record = qf.run(config, default_params(), grid)
    if record.final_status != "ok" or record.steps_survived != FINE_STEPS:
        raise RuntimeError(f"compare-fine fluid run ended {record.final_status}")
    return record.max_center_error


def warmup_call(workload: str, seed: int, out_root: Path) -> Invocation:
    """A two-step version of the workload's first call, for set-up."""
    return invocations(workload, seed, out_root, steps=2)[0]
