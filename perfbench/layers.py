"""Traced run: spans and counts at each layer's public entry points.

The benchmark measures its end-to-end metrics with tracing off. A traced
repetition installs :class:`Recorder` wrappers around the public entry
points of every layer (from this file, without touching the program),
records one span per call with its parent span, and counts the work the
call carried. :func:`self_times` then splits the timed window among the
layers so that the layers' self times plus an explicit unattributed
remainder sum to the window's wall time exactly.

Self time generalizes "span duration minus the part its children
cover" to concurrent threads: every instant of the window is attributed
to exactly one open span, preferring synchronous spans over the serving
layer's asynchronous request spans (which mostly await a batch), and
among those the most recently opened one (the innermost call on its
thread). Instants with no open span are unattributed.

Work that pool workers do is not traced here; it is read from the
pool's public ``shard_snapshots()`` counters and from the tasks
``ShardedPool.run`` is handed.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = [
    "ARTIFACT_NAMES",
    "PER_LAYER",
    "Recorder",
    "Span",
    "cache_ratios",
    "self_times",
    "span_metrics",
]

# Canonical artifact order of ``repro.experiments.registry.EXPERIMENTS``;
# the per-layer metric names are fixed here so that a registry change
# shows up as a benchmark change, not as a silently different key set.
ARTIFACT_NAMES = (
    "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig8-measured",
    "fig9", "fig9-managed", "fig10", "fig11", "fig12", "fig13", "fig14",
    "table2", "dse", "ablation-latency-hiding", "ablation-contention",
    "ablation-memory-management", "x3a-governor", "x3b-checkpoint",
    "x3c-hsa-dispatch", "x4-sensitivity",
)

# Layers whose spans the traced run records; each gets ``<layer>.self_s``.
SPAN_LAYERS = (
    "memsys.dramcache", "memsys.manager", "memsys.rowbuffer",
    "node.grid", "node.point", "dse.explore",
    "thermal.steady", "thermal.transient", "governor", "fleet.sweep",
    "pool.run", "serve", "apu_sim", "experiments",
)

# Every per-layer metric a traced run reports, with its unit. A layer a
# workload bypasses reports 0.
PER_LAYER: dict[str, str] = {}
for _layer in SPAN_LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update({
    "memsys.dramcache.accesses": "count",
    "memsys.manager.accesses": "count",
    "memsys.rowbuffer.accesses": "count",
    "node.grid.calls": "count",
    "node.grid.points": "count",
    "node.point.calls": "count",
    "dse.explore.calls": "count",
    "cache.eval.hit_ratio": "ratio",
    "cache.memsys.hit_ratio": "ratio",
    "cache.sim.hit_ratio": "ratio",
    "thermal.steady.solves": "count",
    "thermal.transient.steps": "count",
    "thermal.sim_x": "s/s",
    "governor.throttle_events": "count",
    "fleet.evaluations": "count",
    "pool.run.calls": "count",
    "pool.tasks": "count",
    "pool.run_s": "s",
    "pool.steals": "count",
    "pool.worker_restarts": "count",
    "serve.batches": "count",
    "serve.requests_per_batch": "count",
    "serve.path.inline": "count",
    "serve.path.coalesced": "count",
    "serve.path.degraded": "count",
    "serve.path.solo": "count",
    "serve.shed": "count",
    "serve.expired": "count",
    "serve.admit_delay_p99_ms": "ms",
    "serve.mean_ms": "ms",
    "serve.p90_ms": "ms",
    "serve.p99_ms": "ms",
    "serve.point_p50_ms": "ms",
    "serve.sweep_p50_ms": "ms",
    "serve.simulate_p50_ms": "ms",
    "serve.slab_useful_ratio": "ratio",
    "apu_sim.runs": "count",
    "apu_sim.run_s": "s",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "loadgen.late_p99_ms": "ms",
    "loadgen.late_max_ms": "ms",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
})
for _name in ARTIFACT_NAMES:
    PER_LAYER[f"artifact.{_name}_s"] = "s"


@dataclass(frozen=True)
class Span:
    """One recorded call: layer, interval, and the span that caused it."""

    id: int
    layer: str
    start: float
    end: float
    parent: int | None
    sync: bool


class Recorder:
    """In-memory span and count store, plus the entry-point wrappers.

    Spans are kept only while :attr:`active`; :meth:`install` patches the
    entry points and :meth:`uninstall` restores them.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[tuple[str, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    @contextlib.contextmanager
    def span(self, layer: str):
        """A synchronous span around a block of the benchmark's own code."""
        if not self.active:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][1] if stack else None
        stack.append((layer, span_id))
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(span_id, layer, start, end, parent, True))

    def _wrap_sync(self, layer, fn, count):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            outermost = all(entry[0] != layer for entry in stack)
            with recorder.span(layer):
                result = fn(*args, **kwargs)
            if outermost and count is not None:
                count(recorder, args, kwargs, result)
            return result

        return wrapper

    def _wrap_async(self, layer, fn):
        recorder = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not recorder.active:
                return await fn(*args, **kwargs)
            start = recorder.clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.spans.append(Span(
                    next(recorder._ids), layer, start, recorder.clock(),
                    None, False,
                ))

        return wrapper

    # -- patching --------------------------------------------------------
    def _patch_attr(self, owner, attr, layer, count):
        original = getattr(owner, attr)
        if inspect.iscoroutinefunction(original):
            wrapped = self._wrap_async(layer, original)
        else:
            wrapped = self._wrap_sync(layer, original, count)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _patch_function(self, module_name, attr, layer, count):
        """Patch a module-level function everywhere it was imported by
        name, so ``from module import fn`` call sites are traced too."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapped = self._wrap_sync(layer, original, count)
        for mod in list(sys.modules.values()):
            for name, value in list(getattr(mod, "__dict__", {}).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def install(self) -> "Recorder":
        """Wrap every layer's public entry points (idempotent per
        recorder; call :meth:`uninstall` to restore)."""
        if self._patches:
            return self
        from repro.core.node import NodeModel
        from repro.core.thermal_governor import ThermalGovernor
        from repro.memsys.dramcache import DramCache
        from repro.memsys.manager import MemoryManager
        from repro.memsys.rowbuffer import RowBufferSim
        from repro.perf.pool import ShardedPool
        from repro.serve.service import EvalService
        from repro.sim.apu_sim import ApuSimulator
        from repro.thermal.grid import ThermalGrid

        for owner, attr, layer, count in (
            (DramCache, "access_many", "memsys.dramcache", _count_accesses(
                "memsys.dramcache.accesses")),
            (MemoryManager, "run_batch", "memsys.manager", _count_epochs),
            (RowBufferSim, "run", "memsys.rowbuffer", _count_accesses(
                "memsys.rowbuffer.accesses")),
            (NodeModel, "evaluate", "node.point", _count_point),
            (NodeModel, "evaluate_arrays", "node.point", _count_point),
            (NodeModel, "evaluate_grid", "node.grid", _count_grid),
            (ThermalGrid, "solve", "thermal.steady", _count_solve),
            (ThermalGrid, "solve_batch", "thermal.steady", _count_solve),
            (ThermalGrid, "solve_many", "thermal.steady", _count_solve),
            (ThermalGrid, "step_transient", "thermal.transient",
             _count_step),
            (ThermalGrid, "step_transient_many", "thermal.transient",
             _count_step),
            (ThermalGovernor, "run", "governor", _count_governor),
            (ShardedPool, "run", "pool.run", _count_pool),
            (EvalService, "submit", "serve", None),
            (ApuSimulator, "run", "apu_sim", None),
        ):
            self._patch_attr(owner, attr, layer, count)
        self._patch_function(
            "repro.core.dse", "explore", "dse.explore", _count_explore
        )
        self._patch_function(
            "repro.fleet.sweep", "fleet_sweep", "fleet.sweep", _count_fleet
        )
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ----------------------------------------------------------------------
# Per-entry-point counters (outermost call of a layer only)
# ----------------------------------------------------------------------
def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_accesses(metric):
    def count(rec, args, kwargs, result):
        rec.add(metric, len(_arg(args, kwargs, 1, "addresses")))
    return count


def _count_epochs(rec, args, kwargs, result):
    epochs = _arg(args, kwargs, 1, "epochs")
    rec.add("memsys.manager.accesses", sum(len(e) for e in epochs))


def _count_point(rec, args, kwargs, result):
    rec.add("node.point.calls", 1)


def _grid_points(n_profiles, space, cu_lo=0, cu_hi=None):
    n_cus = len(space.cu_counts[cu_lo:cu_hi])
    return n_profiles * n_cus * len(space.frequencies) * len(space.bandwidths)


def _count_grid(rec, args, kwargs, result):
    rec.add("node.grid.calls", 1)
    rec.add("node.grid.points", result.performance.size)


def _count_solve(rec, args, kwargs, result):
    maps = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    rec.add("thermal.steady.solves", 1 if maps.ndim == 3 else len(maps))


def _count_step(rec, args, kwargs, result):
    # One scenario is (n_layers, ny, nx); lockstep stepping adds an axis.
    temps = _arg(args, kwargs, 1, "temps")
    dt = float(_arg(args, kwargs, 3, "dt"))
    scenarios = 1 if len(temps.shape) == 3 else len(temps)
    rec.add("thermal.transient.steps", scenarios)
    rec.add("thermal.transient.sim_s", scenarios * dt)


def _count_governor(rec, args, kwargs, result):
    rec.add("governor.throttle_events", len(result.throttle_events))


def _count_explore(rec, args, kwargs, result):
    rec.add("dse.explore.calls", 1)


def _count_fleet(rec, args, kwargs, result):
    sweep = result[0] if isinstance(result, tuple) else result
    rec.add(
        "fleet.evaluations",
        len(sweep.series_exaflops) * len(sweep.cu_counts),
    )


def _count_pool(rec, args, kwargs, result):
    tasks = list(_arg(args, kwargs, 1, "tasks"))
    rec.add("pool.run.calls", 1)
    rec.add("pool.tasks", len(tasks))
    for task in tasks:
        # Grid slabs evaluated in the worker: one evaluate_grid call each.
        if getattr(task.fn, "__name__", "") == "_serve_eval_slab":
            _model, batch, space, cu_lo, cu_hi = task.args
            points = _grid_points(len(batch), space, cu_lo, cu_hi)
            rec.add("node.grid.calls", 1)
            rec.add("node.grid.points", points)
            rec.add("serve.slab_points", points)


# ----------------------------------------------------------------------
# Self-time attribution
# ----------------------------------------------------------------------
def self_times(spans, t0: float, t1: float) -> tuple[dict[str, float], float]:
    """Split the window ``[t0, t1]`` among the spans' layers.

    Returns ``(self_s by layer, unattributed_s)``; the values sum to
    ``t1 - t0`` (the remainder is computed as the difference, so the
    identity is exact up to one float rounding).
    """
    events = []
    for index, s in enumerate(spans):
        a, b = max(s.start, t0), min(s.end, t1)
        if b > a:
            events.append((a, 1, index))
            events.append((b, 0, index))
    events.sort()  # at equal times, closes (0) sort before opens (1)
    out: dict[str, float] = defaultdict(float)
    heap: list[tuple] = []
    open_spans: set[int] = set()
    prev = t0
    for t, kind, index in events:
        while heap and heap[0][-1] not in open_spans:
            heapq.heappop(heap)
        if heap and t > prev:
            out[spans[heap[0][-1]].layer] += t - prev
        prev = t
        if kind:
            s = spans[index]
            open_spans.add(index)
            heapq.heappush(heap, (not s.sync, -s.start, -index, index))
        else:
            open_spans.discard(index)
    attributed = sum(out.values())
    return dict(out), (t1 - t0) - attributed


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def cache_ratios(delta) -> dict[str, float]:
    """``cache.<ns>.hit_ratio`` from one merged metrics snapshot delta."""
    out = {}
    for ns in ("eval", "memsys", "sim"):
        hits = delta.counter(f"cache.{ns}.hits") + delta.counter(
            f"cache.{ns}.spill_hits"
        )
        lookups = hits + delta.counter(f"cache.{ns}.misses")
        out[f"cache.{ns}.hit_ratio"] = _ratio(hits, lookups)
    return out


def span_metrics(
    recorder: Recorder, t0: float, t1: float, program_delta,
    requested_points: int = 0,
) -> dict[str, float]:
    """Per-layer metrics of one traced window.

    *program_delta* is the program's own metrics registry delta over the
    window merged with the pool workers' shard-snapshot deltas; it
    supplies the counts no parent-side wrapper sees (worker cache
    lookups, worker simulations, steals, restarts). *requested_points*
    is the number of grid points the served requests that reached a
    slab asked for; over the points the slabs evaluated it gives
    ``serve.slab_useful_ratio``.
    """
    selfs, unattributed = self_times(recorder.spans, t0, t1)
    c = recorder.counts
    out = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in SPAN_LAYERS}
    out["unattributed_s"] = unattributed
    out["trace.wall_s"] = t1 - t0
    for name in (
        "memsys.dramcache.accesses", "memsys.manager.accesses",
        "memsys.rowbuffer.accesses", "node.grid.calls", "node.grid.points",
        "node.point.calls", "dse.explore.calls", "thermal.steady.solves",
        "thermal.transient.steps", "governor.throttle_events",
        "fleet.evaluations", "pool.run.calls", "pool.tasks",
    ):
        out[name] = c.get(name, 0.0)
    out["thermal.sim_x"] = _ratio(
        c.get("thermal.transient.sim_s", 0.0), out["thermal.transient.self_s"]
    )
    out["pool.run_s"] = sum(
        max(0.0, min(s.end, t1) - max(s.start, t0))
        for s in recorder.spans if s.layer == "pool.run"
    )
    out["pool.steals"] = program_delta.counter("pool.steals")
    out["pool.worker_restarts"] = program_delta.counter(
        "pool.worker_restarts"
    )
    # Simulations run in the parent or in pool workers; both count into
    # the merged registry delta.
    hist = program_delta.histograms.get("sim.apu.run_seconds")
    out["apu_sim.runs"] = program_delta.counter("sim.apu.runs")
    out["apu_sim.run_s"] = hist.total if hist is not None else 0.0
    out.update(cache_ratios(program_delta))
    out["serve.slab_useful_ratio"] = _ratio(
        requested_points, c.get("serve.slab_points", 0.0)
    )
    return out
