"""Experiment and design-space fan-outs over one :class:`ShardedPool`.

Both fan-outs here build one task list and hand it to ``pool.run`` on
the caller's :class:`~repro.perf.pool.ShardedPool`, or run the same
tasks in-process, in submission order, when ``pool=None``:

* :func:`run_experiments` / :func:`run_all_experiments` — any subset of
  the registered figure/table drivers, one task per driver. The
  drivers are independent of each other, so the suite's wall-clock
  collapses to roughly its slowest member. Results come back keyed and
  ordered by the registry's canonical order regardless of completion
  order, and both paths run the same driver function, so their results
  are identical.
* :func:`parallel_explore` — the design-space exploration as *tensor
  slabs*: the profiles are stacked into :class:`~repro.workloads.
  kernels.ProfileBatch` blocks and the grid is cut along its outermost
  (CU) axis, so one task is one fused ``(profile block) x (CU slab)``
  evaluation via :meth:`~repro.core.node.NodeModel.evaluate_grid`.
  Because the fused kernel's coefficients all live on axes a CU slab
  slices through, slab results are bit-identical to the corresponding
  columns of a whole-grid pass, and concatenating slabs in order
  reproduces it exactly. The per-point oracle is the serial
  :func:`repro.core.dse.explore` (``engine="point"``).

Slab tasks carry a ``shard_key`` of ``(profile-block fingerprint, slab
index)``, so the pool's affinity routing sends the same slab to the
same worker every sweep and that worker's warm
:mod:`repro.perf.evalcache` entries are never recomputed elsewhere.
Task payloads stay small: a slab is described by ``(model, block,
space, cu_lo, cu_hi)`` — the block is a few KB of stacked scalar
columns — and each worker rebuilds its slice of the grid locally.

Observability crosses the process boundary by value:
``parallel_explore(..., metrics=True)`` returns the merge of every
worker's per-batch registry delta (the parent's own delta on the
in-process path), so per-worker cache hits and misses sum instead of
vanishing with the pool. :func:`run_experiments` accepts
``metrics_out``/``trace_out`` paths and writes a run manifest / Chrome
trace for the whole fan-out; on the pool each task runs under a
worker-side span that is merged back into the parent's trace.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from typing import Sequence

import numpy as np

from repro.core.config import DesignSpace
from repro.core.dse import DseResult, select_optima
from repro.core.node import NodeModel
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.runner import ExperimentResult
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsSnapshot
from repro.perf.evalcache import (
    evaluate_grid_cached,
    fingerprint_batch,
    fingerprint_model,
)
from repro.perf.pool import PoolTask, ShardedPool
from repro.workloads.kernels import KernelProfile, ProfileBatch

__all__ = [
    "grid_chunks",
    "parallel_explore",
    "run_all_experiments",
    "run_experiments",
]


def _run_one(name: str) -> ExperimentResult:
    """Execute one registered driver (module-level: picklable)."""
    return get_experiment(name)()


def run_experiments(
    names: Sequence[str] | None = None,
    *,
    pool: ShardedPool | None = None,
    metrics_out: str | None = None,
    trace_out: str | None = None,
) -> dict[str, ExperimentResult]:
    """Run the named experiments, on *pool* or in-process.

    Parameters
    ----------
    names:
        Artifact names from the registry; ``None`` means all of them.
    pool:
        A persistent :class:`~repro.perf.pool.ShardedPool` to fan the
        experiments across; each one is routed by
        ``shard_key=("experiment", name)``, so repeated runs keep
        hitting the same warmed worker. ``None`` runs them serially in
        this process, sharing its evaluation caches.
    metrics_out:
        Optional path; writes a run manifest (git revision, engine
        choices, cache counters, wall times, metrics snapshot) after
        the run. Per-experiment wall times are recorded on the
        in-process path; the pooled path records the total.
    trace_out:
        Optional path; installs a tracer for the run and writes Chrome
        trace-event JSON (open in Perfetto). Every experiment gets a
        span on both paths (pooled spans are buffered worker-side and
        merged back).

    Returns a dict ordered by the registry's canonical order — never by
    completion order — so output is deterministic.
    """
    if names is None:
        ordered = list(EXPERIMENTS)
    else:
        ordered = [n for n in EXPERIMENTS if n in set(names)]
        unknown = set(names) - set(EXPERIMENTS)
        if unknown:
            raise KeyError(
                f"unknown experiment(s): {', '.join(sorted(unknown))}"
            )
    if not ordered:
        return {}
    tasks = [
        PoolTask(
            fn=_run_one,
            args=(name,),
            shard_key=("experiment", name),
            label=f"experiment.{name}",
        )
        for name in ordered
    ]

    wall_times: dict[str, float] = {}
    t_start = time.perf_counter()
    tracer_cm = obs_trace.trace() if trace_out else nullcontext(None)
    with tracer_cm as tracer:
        if pool is None:
            values = []
            for name, task in zip(ordered, tasks):
                t0 = time.perf_counter()
                with obs_trace.span(task.label):
                    values.append(task.fn(*task.args))
                wall_times[name] = time.perf_counter() - t0
        else:
            with obs_trace.span(
                "experiments.pool", experiments=len(ordered),
                workers=pool.n_shards,
            ):
                values = pool.run(tasks)
    wall_times["total"] = time.perf_counter() - t_start
    if trace_out and tracer is not None:
        tracer.write(trace_out)
    if metrics_out:
        from repro.obs import manifest as obs_manifest

        obs_manifest.write_manifest(
            metrics_out,
            command=f"run_experiments({', '.join(ordered)})",
            experiments=ordered,
            wall_times=wall_times,
        )
    return dict(zip(ordered, values))


def run_all_experiments(
    *, pool: ShardedPool | None = None
) -> dict[str, ExperimentResult]:
    """Every registered figure/table artifact, canonical order."""
    return run_experiments(None, pool=pool)


# ----------------------------------------------------------------------
# Tensor-slab design-space exploration
# ----------------------------------------------------------------------
def grid_chunks(size: int, n_chunks: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` bounds splitting *size* points into at
    most *n_chunks* near-equal chunks.

    The single source of :func:`parallel_explore`'s CU slabs and
    profile blocks — deterministic, so every process derives identical
    bounds from ``(size, n_chunks)`` alone.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    bounds = np.linspace(
        0, size, max(1, min(n_chunks, size)) + 1, dtype=int
    )
    return [
        (int(lo), int(hi))
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]


def _eval_slab(
    model: NodeModel,
    block: ProfileBatch,
    space: DesignSpace,
    cu_lo: int,
    cu_hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One fused tensor slab: a profile block over a CU-axis slab.

    Returns ``(performance, power)`` of shape ``(len(block),
    slab_points)`` — the exact columns ``[cu_lo*F*B : cu_hi*F*B)`` of a
    whole-grid pass, bit for bit (the fused kernel's coefficients live
    on axes the CU slab slices through). Routes through the worker's
    grid memo so repeated sweeps in a long-lived pool reuse whole-slab
    results.
    """
    grid = evaluate_grid_cached(model, block, space, cu_lo, cu_hi)
    return grid.performance, grid.power


def _slab_dedup_key(
    model_fp: str, batch_fp: str, space: DesignSpace, cu_lo: int, cu_hi: int
) -> str:
    """Content digest of one slab task's (pure) result.

    Everything the result depends on is in here, so the pool's payload
    dedup can answer a warm repeat sweep with parent-held arrays instead
    of re-pickling them across the pipe.
    """
    text = repr(("dse-slab", model_fp, batch_fp, repr(space), cu_lo, cu_hi))
    return hashlib.sha1(text.encode()).hexdigest()


def parallel_explore(
    profiles: Sequence[KernelProfile] | ProfileBatch,
    space: DesignSpace | None = None,
    model: NodeModel | None = None,
    *,
    n_chunks: int | None = None,
    pool: ShardedPool | None = None,
    metrics: bool = False,
) -> DseResult | tuple[DseResult, MetricsSnapshot]:
    """The full DSE as (profile-block x CU-slab) tensor-slab tasks.

    Produces a :class:`~repro.core.dse.DseResult` identical to the
    serial :func:`repro.core.dse.explore` (slabs are concatenated in
    grid order before the optima are selected). The grid is cut along
    its outermost axis into at most *n_chunks* slabs and the profiles
    into at most *n_chunks* :class:`~repro.workloads.kernels.
    ProfileBatch` blocks; *n_chunks* defaults to the pool's shard count
    (one whole-grid task without a pool).

    With ``pool=`` the tasks run on a persistent
    :class:`~repro.perf.pool.ShardedPool`, routed by ``(profile-block
    fingerprint, slab index)``, so across repeated sweeps each worker
    keeps seeing the slabs whose cache entries it already holds, and
    identical repeat results come back via the pool's payload dedup
    without re-shipping the arrays. ``pool=None`` runs the same tasks
    in-process.

    With ``metrics=True`` the return value is ``(result, snapshot)``:
    the merge of every worker's registry delta for the run (the
    parent's own delta in-process), so the snapshot's cache hit/miss
    totals are the sums over all workers (one ``cache.eval`` lookup per
    task).
    """
    if not profiles:
        raise ValueError("parallel_explore needs at least one profile")
    # ProfileBatch rejects duplicate profile names.
    batch = (
        profiles
        if isinstance(profiles, ProfileBatch)
        else ProfileBatch.from_profiles(profiles)
    )
    space = space or DesignSpace()
    model = model or NodeModel()
    if n_chunks is None:
        n_chunks = pool.n_shards if pool is not None else 1

    slabs = grid_chunks(len(space.cu_counts), n_chunks)
    block_ranges = grid_chunks(len(batch), n_chunks)
    model_fp = fingerprint_model(model)
    tasks = []
    for blo, bhi in block_ranges:
        block = batch[blo:bhi]
        block_fp = fingerprint_batch(block)
        for slab_idx, (cu_lo, cu_hi) in enumerate(slabs):
            tasks.append(
                PoolTask(
                    fn=_eval_slab,
                    args=(model, block, space, cu_lo, cu_hi),
                    shard_key=(block_fp, slab_idx),
                    dedup_key=_slab_dedup_key(
                        model_fp, block_fp, space, cu_lo, cu_hi
                    ),
                    label=(
                        f"dse.slab.{block.names[0]}+{len(block) - 1}"
                        f"[cu {cu_lo}:{cu_hi}]"
                    ),
                )
            )

    snap = None
    if pool is not None:
        results = pool.run(tasks, metrics=metrics)
        if metrics:
            results, snap = results
    else:
        before = obs_metrics.snapshot() if metrics else None
        results = [task.fn(*task.args) for task in tasks]
        if metrics:
            snap = obs_metrics.snapshot().diff(before)

    performance: dict[str, np.ndarray] = {}
    node_power: dict[str, np.ndarray] = {}
    feasible: dict[str, np.ndarray] = {}
    per_block = len(slabs)
    for b_idx, (blo, bhi) in enumerate(block_ranges):
        rows = results[b_idx * per_block: (b_idx + 1) * per_block]
        perf = np.concatenate([r[0] for r in rows], axis=1)
        power = np.concatenate([r[1] for r in rows], axis=1)
        for j, name in enumerate(batch.names[blo:bhi]):
            performance[name] = perf[j]
            node_power[name] = power[j]
            feasible[name] = power[j] <= space.power_budget
    result = select_optima(space, performance, node_power, feasible)
    return (result, snap) if metrics else result
