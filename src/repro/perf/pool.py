"""Persistent worker pool with one FIFO task queue.

A :class:`ShardedPool` is the program's one fan-out: the serving
layer's simulation and experiment requests (and the serve benchmark's
naive one-round-trip-per-request baseline) hand it their task lists.
Its workers are spawned once and reused across calls.

Scheduling: each run keeps one FIFO of task indices. An idle worker
takes the next task and holds at most one task in flight, so a slow
task never holds back queued work another worker could run. Every
task is a whole unit of evaluation (an artifact or a trace
simulation), so the pipe round trip per task (about 0.1 ms) is
noise next to the task itself.

Mechanics worth knowing:

* **Restart on death.** A worker that dies (crash, ``os._exit``, OOM
  kill) is respawned and its in-flight task goes back to the head of
  the queue; results stay bit-identical because tasks are pure. A
  per-run restart budget turns a task that kills every worker into an
  error instead of a spawn loop.
* **Observability.** The pool publishes ``pool.tasks`` and
  ``pool.worker_restarts`` counters; each worker ships a per-task
  :class:`~repro.obs.metrics.MetricsSnapshot` delta that the parent
  merges into :meth:`ShardedPool.merged_snapshot`, worker
  ``proc.rss_bytes`` gauges are republished as
  ``pool.worker<N>.rss_bytes``, and when a tracer is active a
  ``pool.run`` span covers each run and every worker records its task
  under the task's label (the serving layer labels a request's task
  ``serve-solo-<seq>``); the worker ships the task's events back and
  they merge into the parent's Chrome trace as the worker's process
  track.

Workers use the ``fork`` start method where available (a forked worker
shares the parent's already-imported module graph, so spawning is
milliseconds, not seconds). Shutdown is explicit (:meth:`shutdown`, or
use the pool as a context manager) with a ``weakref.finalize`` safety
net that also runs at interpreter exit.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import numbers
import os
import pickle
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Sequence

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsSnapshot
from repro.obs.proc import publish_memory_gauges

__all__ = ["PoolStats", "PoolTask", "ShardedPool"]

_WAIT_TIMEOUT_S = 0.25
"""Upper bound on how long a dispatch-loop wait blocks before it
re-checks worker liveness (deaths usually wake it via the sentinel)."""


@dataclass(frozen=True)
class PoolTask:
    """One unit of pool work.

    Attributes
    ----------
    fn:
        Module-level (picklable) callable executed in the worker.
    args:
        Its positional arguments (picklable).
    label:
        Span name / diagnostics label (defaults to the function name).
    """

    fn: Callable
    args: tuple = ()
    label: str = ""


@dataclass(frozen=True)
class PoolStats:
    """Lifetime counters of one :class:`ShardedPool`."""

    tasks: int = 0
    worker_restarts: int = 0


def _picklable_exception(exc: BaseException) -> BaseException:
    """The exception itself when it pickles, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(worker_id: int, conn) -> None:
    """Worker loop: receive one task, run it, reply.

    A reply carries ``(dispatch_id, kind, payload)`` — ``kind`` is
    ``"value"`` (payload is the result) or ``"error"`` (payload is the
    exception) — plus, when requested, the worker's metrics delta for
    the task and the trace events of its span. One tracer serves the
    worker's lifetime, so the spans of its successive tasks share one
    timeline and never overlap on its track. It is installed for every
    task, also untraced ones, whose records are dropped: a forked
    worker would otherwise record into the copy of whatever tracer the
    parent had active when it forked, and never ship or drop it.
    """
    tracer = obs_trace.Tracer()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        dispatch_id, fn, args, label, want_metrics, want_trace = message
        registry = obs_metrics.default_registry()
        before = registry.snapshot() if want_metrics else None
        with obs_trace.trace(tracer=tracer):
            span_name = label or getattr(fn, "__name__", "task")
            try:
                with obs_trace.span(span_name, cat="pool", worker=worker_id):
                    kind, payload = "value", fn(*args)
            except BaseException as exc:
                kind, payload = "error", _picklable_exception(exc)
        delta = None
        if want_metrics:
            publish_memory_gauges(registry)
            delta = registry.snapshot().diff(before)
        events = tracer.events if want_trace else None
        tracer.clear()
        try:
            conn.send((dispatch_id, kind, payload, delta, events))
        except (BrokenPipeError, OSError):
            break


@dataclass
class _Worker:
    """Parent-side handle on one worker process."""

    process: Any
    conn: Any


def _shutdown_workers(registry: dict) -> None:
    """Finalizer body: ask every live worker to exit, then make sure.

    Module-level (not a bound method) so ``weakref.finalize`` holds no
    reference back to the pool.
    """
    for process, conn in list(registry.values()):
        try:
            conn.send(None)
        except Exception:
            pass
    for process, conn in list(registry.values()):
        process.join(timeout=2.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=1.0)
        try:
            conn.close()
        except Exception:
            pass
    registry.clear()


class ShardedPool:
    """Long-lived pool of worker processes fed from one task queue.

    Parameters
    ----------
    n_shards:
        Worker count, a positive integer. Defaults to
        ``min(cpu_count, 8)``.
    """

    def __init__(self, n_shards: int | None = None):
        if n_shards is None:
            n_shards = max(1, min(os.cpu_count() or 1, 8))
        if (
            not isinstance(n_shards, numbers.Integral)
            or isinstance(n_shards, bool)
            or n_shards < 1
        ):
            raise ValueError(
                f"n_shards must be a positive integer, got {n_shards!r}"
            )
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else None)
        self.n_shards = int(n_shards)
        self._workers: list[_Worker | None] = [None] * self.n_shards
        self._merged = MetricsSnapshot.empty()
        self._tasks = 0
        self._restarts = 0
        self._closed = False
        self._running = False
        # index -> (process, conn), kept in sync by _spawn; the
        # finalizer tears down whatever the registry holds at exit.
        self._proc_registry: dict[int, tuple] = {}
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, self._proc_registry
        )
        for index in range(self.n_shards):
            self._spawn(index)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, child_conn),
            daemon=True,
            name=f"repro-pool-{index}",
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn)
        self._workers[index] = worker
        self._proc_registry[index] = (process, parent_conn)
        return worker

    def _restart(self, index: int) -> _Worker:
        """Replace a dead (or doomed) worker; counts as a restart.

        Refuses once the pool is closed: the ``weakref.finalize``
        teardown has already run (it runs at most once), so a worker
        respawned after shutdown would never be cleaned up — and the
        run that wanted it must fail out instead of silently leaking
        processes and hanging on futures nobody will answer.
        """
        if self._closed:
            raise RuntimeError(
                "pool was shut down while a run was in flight"
            )
        old = self._workers[index]
        if old is not None:
            if old.process.is_alive():
                old.process.terminate()
            old.process.join(timeout=2.0)
            try:
                old.conn.close()
            except OSError:
                pass
        self._restarts += 1
        obs_metrics.inc("pool.worker_restarts")
        return self._spawn(index)

    def _ensure_alive(self, index: int) -> _Worker:
        worker = self._workers[index]
        if worker is None or not worker.process.is_alive():
            worker = self._restart(index)
        return worker

    def kill_worker(self, index: int) -> None:
        """Hard-kill one worker (for death/restart testing); the pool
        respawns it the next time it hands that worker a task."""
        worker = self._workers[index]
        if worker is not None and worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def shutdown(self) -> None:
        """Stop every worker and close the pool (idempotent).

        Safe to call while a :meth:`run` is in flight (e.g. from
        another thread, as the serving layer's close path can): the
        run fails promptly with a ``RuntimeError`` instead of hanging
        on — or leaking replacement workers for — tasks that will
        never be answered.
        """
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "ShardedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> PoolStats:
        """Lifetime task/restart counters."""
        return PoolStats(tasks=self._tasks, worker_restarts=self._restarts)

    def merged_snapshot(self) -> MetricsSnapshot:
        """Every worker's metrics deltas merged into one snapshot."""
        return self._merged

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[PoolTask]) -> list:
        """Execute *tasks*; returns their results in submission order.

        The first task exception (in submission order) is re-raised
        once every task has run; the pool stays usable.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        if self._running:
            raise RuntimeError("pool.run is not reentrant")
        tasks = list(tasks)
        if not tasks:
            return []
        self._running = True
        try:
            with obs_trace.span("pool.run", cat="pool", tasks=len(tasks)):
                return self._run(tasks)
        finally:
            self._running = False

    def _run(self, tasks: list[PoolTask]) -> list:
        n_tasks = len(tasks)
        want_metrics = obs_metrics.metrics_enabled()
        tracer = obs_trace.active_tracer()
        self._tasks += n_tasks
        obs_metrics.inc("pool.tasks", n_tasks)

        queue = deque(range(n_tasks))
        results: list[Any] = [None] * n_tasks
        completed = 0
        errors: list[tuple[int, BaseException]] = []
        # worker index -> (dispatch id, task index)
        inflight: dict[int, tuple[int, int]] = {}
        dispatch_ids = itertools.count()
        restart_budget = 2 * self.n_shards + 3

        def dispatch(worker_index: int) -> None:
            """Hand the next queued task to the worker, restarting it
            first if it died while idle."""
            while queue:
                index = queue.popleft()
                worker = self._ensure_alive(worker_index)
                dispatch_id = next(dispatch_ids)
                task = tasks[index]
                try:
                    worker.conn.send((
                        dispatch_id, task.fn, tuple(task.args), task.label,
                        want_metrics, tracer is not None,
                    ))
                except (BrokenPipeError, OSError):
                    # Died between the liveness check and the send: put
                    # the task back at the head and try again.
                    queue.appendleft(index)
                    self._restart(worker_index)
                    continue
                inflight[worker_index] = (dispatch_id, index)
                return

        def on_reply(worker_index: int, message) -> None:
            nonlocal completed
            dispatch_id, kind, payload, delta, events = message
            if dispatch_id != inflight[worker_index][0]:
                return  # stale reply from a pre-restart dispatch
            _, index = inflight.pop(worker_index)
            completed += 1
            if kind == "error":
                errors.append((index, payload))
            else:
                results[index] = payload
            if delta is not None:
                self._merged = self._merged.merge(delta)
                for gauge_name, gauge_value in delta.gauges.items():
                    if gauge_name.startswith("proc."):
                        obs_metrics.set_gauge(
                            f"pool.worker{worker_index}."
                            f"{gauge_name[len('proc.'):]}",
                            gauge_value,
                        )
            if events:
                tracer.extend(events)

        def on_death(worker_index: int) -> None:
            """Requeue the lost task at the head of the queue and
            respawn the worker."""
            lost = inflight.pop(worker_index, None)
            if lost is not None:
                queue.appendleft(lost[1])
            if self._restarts - restarts_at_start >= restart_budget:
                raise RuntimeError(
                    f"pool worker {worker_index} died repeatedly "
                    f"({restart_budget} restarts this run); giving up"
                )
            self._restart(worker_index)

        restarts_at_start = self._restarts
        while True:
            if self._closed:
                # shutdown() raced this run: every worker is dead or
                # dying and the finalizer will not run again, so bail
                # out promptly instead of spinning on requeue/respawn.
                remaining = n_tasks - completed
                raise RuntimeError(
                    f"pool was shut down while a run was in flight "
                    f"({remaining} of {n_tasks} tasks unfinished)"
                )
            if completed == n_tasks:
                break
            for worker_index in range(self.n_shards):
                if worker_index not in inflight:
                    dispatch(worker_index)
            if not inflight:
                # Nothing running and nothing dispatchable: every
                # remaining task is lost (cannot happen with a healthy
                # requeue path; guard against an infinite spin).
                raise RuntimeError("pool stalled with unfinished tasks")
            waitables = []
            for worker_index in inflight:
                worker = self._workers[worker_index]
                waitables += [worker.conn, worker.process.sentinel]
            mp_connection.wait(waitables, timeout=_WAIT_TIMEOUT_S)
            for worker_index in list(inflight):
                worker = self._workers[worker_index]
                try:
                    has_reply = worker.conn.poll()
                except (OSError, ValueError):
                    has_reply = False
                if has_reply:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        on_death(worker_index)
                        continue
                    on_reply(worker_index, message)
                elif not worker.process.is_alive():
                    on_death(worker_index)

        if errors:
            errors.sort(key=lambda pair: pair[0])
            index, exc = errors[0]
            raise RuntimeError(
                f"pool task {index} "
                f"({tasks[index].label or tasks[index].fn.__name__}) failed"
            ) from exc
        return results
