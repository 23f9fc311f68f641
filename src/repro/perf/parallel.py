"""Experiment fan-out over one :class:`ShardedPool`.

:func:`run_experiments` / :func:`run_all_experiments` run any subset of
the registered figure/table drivers as one task list: one task per
driver, handed to ``pool.run`` on the caller's
:class:`~repro.perf.pool.ShardedPool`, or run in-process, in submission
order, when ``pool=None``. The drivers are independent of each other,
so on a pool the suite's wall-clock collapses to roughly its slowest
member. Results come back keyed and ordered by the registry's canonical
order regardless of completion order, and both paths run the same
driver function, so their results are identical.

A design-space sweep has no fan-out here: one fused
:meth:`~repro.core.node.NodeModel.evaluate_grid` pass over the paper's
whole grid takes about a millisecond, less than one pool round-trip,
so :func:`repro.core.dse.explore` runs it in-process.

:func:`run_experiments` accepts ``metrics_out``/``trace_out`` paths and
writes a run manifest / Chrome trace for the whole fan-out; on the pool
each task runs under a worker-side span that is merged back into the
parent's trace, and each worker's metrics delta is merged into the
pool's :meth:`~repro.perf.pool.ShardedPool.merged_snapshot`.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Sequence

from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.runner import ExperimentResult
from repro.obs import trace as obs_trace
from repro.perf.pool import PoolTask, ShardedPool

__all__ = ["run_all_experiments", "run_experiments"]


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
        experiments across, one task each, taken by whichever worker
        is idle next. ``None`` runs them serially in this process.
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
