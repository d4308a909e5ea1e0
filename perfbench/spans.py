"""Spans around the calls between qfluid's modules, installed from outside.

Each public qfluid function is wrapped under the name its caller looks it
up by (`qfluid.integrator.moments`, `qfluid.diagnostics.moments`, ... are
separate lookups of one function), so every cross-module call becomes a
span.  A span is named after the layer that defines the function
(`forces.moments`) and remembers the module that called it (`site`).
Nothing under `src/` changes, and the wrappers exist only while installed.

Self time is a span's duration minus the durations of its same-thread
children.  Spans that start on a thread with nothing open (the sweep's pool
threads) take the open `cli.sweep.pool` span as parent but are not
subtracted from it: they run concurrently with it.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import NamedTuple

# qfluid modules whose namespaces hold the lookups; the package namespace
# itself is left alone, so the benchmark's own API calls stay untraced.
MODULES = ("cli", "integrator", "diagnostics", "forces", "reference", "core", "oracle", "presets")

POOL_SPAN = "cli.sweep.pool"

# Loop steps a solver span performed, read from the RunRecord it returns.
_WORK = {
    "integrator.run": lambda record: record.steps_survived,
    "reference.run_reference": lambda record: record.steps_survived,
}


class Span(NamedTuple):
    sid: int
    parent: int  # 0 = none
    name: str
    site: str
    pass_id: int
    label: str
    main_thread: bool
    start: float
    end: float
    self_s: float
    work: int

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `pass_id` and `label` tag each new span.
    While `keep` is false, calls are still wrapped and timed, but their
    spans are dropped."""

    def __init__(self):
        self.spans: list[Span] = []
        self.keep = True
        self.pass_id = 0
        self.label = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._adopt = 0  # parent of spans opened on a thread with nothing open
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name, site, fn, args, kwargs, adopt=False):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1][0] if stack else self._adopt
        frame = [next(self._ids), 0.0]
        stack.append(frame)
        saved = self._adopt
        if adopt:
            self._adopt = frame[0]
        t0 = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = perf_counter()
            if adopt:
                self._adopt = saved
            stack.pop()
            if stack:
                stack[-1][1] += t1 - t0
            if self.keep:
                work = _WORK[name](result) if name in _WORK and result is not None else 0
                self.spans.append(Span(
                    frame[0], parent, name, site, self.pass_id, self.label,
                    threading.get_ident() == self._main, t0, t1, t1 - t0 - frame[1], work,
                ))

    def wrap(self, fn, name, site):
        def traced(*args, **kwargs):
            return self.call(name, site, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Replace every public qfluid function in each module namespace,
        `OracleWave.force`, and the CLI's thread pool by traced versions."""
        for short in MODULES:
            mod = importlib.import_module(f"qfluid.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("qfluid."):
                    continue
                layer = obj.__module__.rsplit(".", 1)[1]
                self._swap(mod, attr, self.wrap(obj, f"{layer}.{obj.__name__}", short))
        oracle = importlib.import_module("qfluid.oracle")
        self._swap(oracle.OracleWave, "force", self.wrap(oracle.OracleWave.force, "oracle.force", "integrator"))
        cli = importlib.import_module("qfluid.cli")
        self._swap(cli, "ThreadPoolExecutor", _traced_pool(self))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _swap(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)


def _traced_pool(tracer: Tracer):
    class TracedPool(ThreadPoolExecutor):
        """Consumes `map` inside a span, so the wait for the pool is
        measured and the pool threads' spans have a parent.  The CLI reads
        every result at once anyway, so the order of events is unchanged."""

        def map(self, fn, *iterables, **kwargs):
            def drain():
                return list(super(TracedPool, self).map(fn, *iterables, **kwargs))

            return iter(tracer.call(POOL_SPAN, "cli", drain, (), {}, adopt=True))

    return TracedPool


def additivity(spans: list[Span], pass_walls: list[float]) -> tuple[list[float], float]:
    """Per pass, the main thread's self times plus the unwrapped remainder
    make up the pass's wall time.  Returns each pass's remainder (s) and the
    worst gap between a pass's summed self times and its summed root spans,
    which is zero when self times are accounted correctly."""
    self_sum = [0.0] * len(pass_walls)
    root_sum = [0.0] * len(pass_walls)
    for s in spans:
        if s.main_thread:
            self_sum[s.pass_id] += s.self_s
            if s.parent == 0:
                root_sum[s.pass_id] += s.dur
    remainders = [w - t for w, t in zip(pass_walls, self_sum)]
    gap = max(abs(a - b) for a, b in zip(self_sum, root_sum))
    return remainders, gap
