"""Persistent sharded worker pool with cache-affinity scheduling.

A :class:`ShardedPool` is the program's one fan-out: the experiment
runner, the tensor-slab design-space exploration
(:mod:`repro.perf.parallel`), the fleet sweep
(:mod:`repro.fleet.sweep`) and the serving layer all hand it their
task lists. Its workers are spawned once and reused across calls, and
*deterministic shard routing* pins each keyed task to a fixed worker —
a stable SHA-1 hash of the task's ``shard_key`` (for DSE tensor slabs:
``(profile-block fingerprint, CU-slab index)``) picks the shard, so a
given worker always owns the same slice of the profile×grid space and
its warm :class:`~repro.perf.evalcache.EvalCache` entries are never
recomputed on another worker. The same locality lever work-stealing
runtimes and NUMA-aware schedulers pull to keep hot state resident.

Scheduling: a keyed task goes to its shard's worker; a task with
``shard_key=None`` is dealt round-robin by submission index. An idle
worker may *steal* a batch — from the tail of the longest backlog —
but only when its own shard queue is empty, so locality is surrendered
exactly when the alternative is an idle core.

Mechanics worth knowing:

* **Batched submission.** Tasks travel in batches (one pipe message per
  batch, ``batch_size`` tasks each), cutting IPC round-trips; a worker
  holds at most one batch in flight, which is what keeps stealing and
  death-recovery simple.
* **Result-payload dedup.** A task may carry a ``dedup_key`` — a stable
  digest that uniquely identifies its (pure) result. The parent keeps
  an LRU of previously shipped payloads; when it already holds a key's
  payload the worker executes the task (keeping its cache warm and its
  counters honest) but replies with a tiny reference instead of
  re-pickling megabytes of arrays. Warm repeat sweeps become almost
  pure routing.
* **Restart on death.** A worker that dies (crash, ``os._exit``, OOM
  kill) is respawned and its in-flight batch is re-dispatched to the
  replacement; results stay bit-identical because tasks are pure. A
  per-run restart budget turns a task that kills every worker into an
  error instead of a spawn loop.
* **Observability.** The pool publishes ``pool.tasks``,
  ``pool.batches``, ``pool.steals`` and ``pool.worker_restarts``
  counters; each worker ships a per-batch
  :class:`~repro.obs.metrics.MetricsSnapshot` delta that the parent
  merges (per-shard totals via :meth:`ShardedPool.shard_snapshots`,
  per-shard cache hit rates via :meth:`shard_cache_hit_rates`), worker
  ``proc.rss_bytes`` gauges are republished as
  ``pool.worker<N>.rss_bytes``, and when a tracer is active each task
  envelope ships a :class:`~repro.obs.trace.SpanContext` (a child of
  the run's ``pool.run`` span, allocated in submission order) under
  which the worker opens its task span — the buffered worker events
  merge back into the parent's Chrome trace as one connected
  parent→worker span tree.

Workers default to the ``fork`` start method where available (a forked
worker shares the parent's already-imported module graph, so spawning
is milliseconds, not seconds); pass ``mp_context="spawn"`` for fully
isolated workers. Shutdown is explicit (:meth:`shutdown`, or use the
pool as a context manager) with a ``weakref.finalize`` safety net that
also runs at interpreter exit.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing as mp
import os
import pickle
import weakref
from collections import OrderedDict, deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Mapping, Sequence

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsSnapshot
from repro.obs.proc import publish_memory_gauges

__all__ = ["PoolStats", "PoolTask", "ShardedPool", "stable_shard"]

_WAIT_TIMEOUT_S = 0.25
"""Upper bound on how long a dispatch-loop wait blocks before it
re-checks worker liveness (deaths usually wake it via the sentinel)."""


def stable_shard(shard_key: Any, n_shards: int) -> int:
    """Deterministic shard index for *shard_key*.

    SHA-1 over ``repr(shard_key)`` — stable across processes and runs
    (unlike the salted builtin ``hash``), which is what makes a task's
    owner worker a property of the task, not of the session.
    """
    digest = hashlib.sha1(repr(shard_key).encode()).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


@dataclass(frozen=True)
class PoolTask:
    """One unit of pool work.

    Attributes
    ----------
    fn:
        Module-level (picklable) callable executed in the worker.
    args / kwargs:
        Its arguments (picklable).
    shard_key:
        Any value; equal keys always land on the same worker. ``None``
        falls back to round-robin placement for that task.
    dedup_key:
        Optional stable digest uniquely identifying the task's result
        (tasks must be pure for this to be sound). When the parent
        already holds the payload, the worker's reply omits it.
    label:
        Span name / diagnostics label (defaults to the function name).
    """

    fn: Callable
    args: tuple = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    shard_key: Any = None
    dedup_key: str | None = None
    label: str = ""


@dataclass(frozen=True)
class PoolStats:
    """Lifetime counters of one :class:`ShardedPool`."""

    tasks: int = 0
    batches: int = 0
    steals: int = 0
    worker_restarts: int = 0


def _picklable_exception(exc: BaseException) -> BaseException:
    """The exception itself when it pickles, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(worker_id: int, conn) -> None:
    """Worker loop: receive a batch, run its tasks, reply.

    Replies carry per-task ``(index, kind, payload)`` rows — ``kind`` is
    ``"value"`` (payload attached), ``"ref"`` (parent already holds the
    payload under the task's dedup key) or ``"error"`` (payload is the
    exception) — plus, when requested, the worker's metrics delta for
    the batch and the buffered trace events of the per-task spans.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        batch_id, items, want_metrics, want_trace = message
        registry = obs_metrics.default_registry()
        before = registry.snapshot() if want_metrics else None
        tracer = obs_trace.Tracer() if want_trace else None
        tracer_cm = (
            obs_trace.trace(tracer=tracer) if want_trace else nullcontext()
        )
        replies = []
        with tracer_cm:
            for index, fn, args, kwargs, label, skip_payload, ctx in items:
                span_name = label or getattr(fn, "__name__", "task")
                try:
                    with obs_trace.span(
                        span_name, cat="pool", context=ctx, worker=worker_id
                    ):
                        value = fn(*args, **(kwargs or {}))
                except BaseException as exc:
                    replies.append((index, "error", _picklable_exception(exc)))
                else:
                    if skip_payload:
                        replies.append((index, "ref", None))
                    else:
                        replies.append((index, "value", value))
        delta = None
        if want_metrics:
            publish_memory_gauges(registry)
            delta = registry.snapshot().diff(before)
        events = tracer.events if tracer is not None else None
        try:
            conn.send(("done", worker_id, batch_id, replies, delta, events))
        except (BrokenPipeError, OSError):
            break


@dataclass
class _Worker:
    """Parent-side handle on one worker process."""

    index: int
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
    """Long-lived pool of shard-affine worker processes.

    Parameters
    ----------
    n_shards:
        Worker count; shards map 1:1 onto workers. Defaults to
        ``min(cpu_count, 8)``.
    batch_size:
        Tasks per pipe message. ``None`` sizes batches per run as
        roughly a quarter of each worker's fair share, so every worker
        gets several scheduling opportunities (steals need a backlog).
    mp_context:
        A multiprocessing context or start-method name. Defaults to
        ``fork`` where available (fast spawn, inherits the warmed
        import graph), else the platform default.
    result_cache_size:
        LRU bound on the parent's dedup payload store.
    """

    def __init__(
        self,
        n_shards: int | None = None,
        *,
        batch_size: int | None = None,
        mp_context=None,
        result_cache_size: int = 512,
    ):
        if n_shards is None:
            n_shards = max(1, min(os.cpu_count() or 1, 8))
        if n_shards < 1:
            raise ValueError("n_shards must be positive")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive or None")
        if result_cache_size < 0:
            raise ValueError("result_cache_size must be non-negative")
        if mp_context is None:
            methods = mp.get_all_start_methods()
            mp_context = mp.get_context(
                "fork" if "fork" in methods else None
            )
        elif isinstance(mp_context, str):
            mp_context = mp.get_context(mp_context)
        self.n_shards = int(n_shards)
        self.batch_size = batch_size
        self._ctx = mp_context
        self._payload_cap = int(result_cache_size)
        self._payloads: OrderedDict[str, Any] = OrderedDict()
        self._workers: list[_Worker | None] = [None] * self.n_shards
        self._shard_totals = [
            MetricsSnapshot.empty() for _ in range(self.n_shards)
        ]
        self._tasks = 0
        self._batches = 0
        self._steals = 0
        self._restarts = 0
        self._last_assignment = [0] * self.n_shards
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
        worker = _Worker(index, process, parent_conn)
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
        respawns it the next time it has work for that shard."""
        worker = self._workers[index]
        if worker is not None and worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def shutdown(self) -> None:
        """Stop every worker and close the pool (idempotent).

        Safe to call while a :meth:`run` is in flight (e.g. from
        another thread, as the serving layer's close path can): the
        run fails promptly with a ``RuntimeError`` instead of hanging
        on — or leaking replacement workers for — batches that will
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
    def shard_for(self, shard_key: Any) -> int:
        """The worker that owns *shard_key*."""
        return stable_shard(shard_key, self.n_shards)

    def stats(self) -> PoolStats:
        """Lifetime task/batch/steal/restart counters."""
        return PoolStats(
            tasks=self._tasks,
            batches=self._batches,
            steals=self._steals,
            worker_restarts=self._restarts,
        )

    def last_shard_task_counts(self) -> list[int]:
        """Per-shard task counts of the most recent run's initial
        assignment (before any stealing) — how evenly the shard keys
        spread the work, independent of timing noise."""
        return list(self._last_assignment)

    def assignment_balance(self) -> float:
        """Fair share over the largest shard load of the last run.

        1.0 is a perfectly even key spread; ``check_fleet`` gates its
        deterministic shard-scaling efficiency on this (stealing can
        only improve on it at runtime).
        """
        counts = self._last_assignment
        peak = max(counts, default=0)
        if peak == 0:
            return 1.0
        return (sum(counts) / len(counts)) / peak

    def shard_snapshots(self) -> list[MetricsSnapshot]:
        """Per-shard accumulated worker metrics deltas."""
        return list(self._shard_totals)

    def merged_snapshot(self) -> MetricsSnapshot:
        """All shards' worker metrics merged into one snapshot."""
        merged = MetricsSnapshot.empty()
        for snap in self._shard_totals:
            merged = merged.merge(snap)
        return merged

    def shard_cache_hit_rates(
        self, prefix: str = "cache.eval"
    ) -> list[float]:
        """Per-shard hit rate of one cache namespace (0.0 when idle)."""
        rates = []
        for snap in self._shard_totals:
            hits = snap.counter(f"{prefix}.hits") + snap.counter(
                f"{prefix}.spill_hits"
            )
            lookups = hits + snap.counter(f"{prefix}.misses")
            rates.append(hits / lookups if lookups else 0.0)
        return rates

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[PoolTask],
        *,
        metrics: bool = False,
        batch_size: int | None = None,
    ) -> list | tuple[list, MetricsSnapshot]:
        """Execute *tasks*; returns their results in submission order.

        With ``metrics=True`` returns ``(results, snapshot)`` where the
        snapshot is the merge of every worker's per-batch registry delta
        for this run.

        The first task exception (in submission order) is re-raised
        after in-flight batches drain; the pool stays usable.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        if self._running:
            raise RuntimeError("pool.run is not reentrant")
        tasks = list(tasks)
        if not tasks:
            return ([], MetricsSnapshot.empty()) if metrics else []
        self._running = True
        try:
            return self._run(tasks, metrics, batch_size or self.batch_size)
        finally:
            self._running = False

    def _run(
        self, tasks: list[PoolTask], metrics: bool, batch_size: int | None
    ):
        n_tasks = len(tasks)
        want_metrics = metrics or obs_metrics.metrics_enabled()
        tracer = obs_trace.active_tracer()
        want_trace = tracer is not None
        # Trace contexts: one "pool.run" span owns the whole call, each
        # task envelope ships a child context allocated in submission
        # order (so span ids are deterministic regardless of stealing);
        # workers open their task span under the shipped id.
        run_ctx = None
        task_ctxs: list = [None] * n_tasks
        run_start = 0.0
        if tracer is not None:
            run_ctx = tracer.child_context()
            task_ctxs = [
                tracer.child_context(parent=run_ctx) for _ in range(n_tasks)
            ]
            run_start = tracer.now()
        if batch_size is None:
            fair_share = -(-n_tasks // self.n_shards)
            batch_size = max(1, -(-fair_share // 4))

        # --- shard assignment -----------------------------------------
        queues: list[deque[int]] = [deque() for _ in range(self.n_shards)]
        for index, task in enumerate(tasks):
            if task.shard_key is None:
                shard = index % self.n_shards
            else:
                shard = stable_shard(task.shard_key, self.n_shards)
            queues[shard].append(index)
        self._last_assignment = [len(q) for q in queues]

        # --- payload dedup: pin known payloads for the whole run ------
        pinned: dict[int, Any] = {}
        for index, task in enumerate(tasks):
            if task.dedup_key is not None and task.dedup_key in self._payloads:
                self._payloads.move_to_end(task.dedup_key)
                pinned[index] = self._payloads[task.dedup_key]

        self._tasks += n_tasks
        obs_metrics.inc("pool.tasks", n_tasks)

        results: list[Any] = [None] * n_tasks
        done = [False] * n_tasks
        completed = 0
        errors: list[tuple[int, BaseException]] = []
        merged_delta = MetricsSnapshot.empty()
        inflight: dict[int, tuple[int, list[int]]] = {}
        batch_ids = itertools.count()
        restart_budget = 2 * self.n_shards + 3

        def take_batch(worker_index: int) -> tuple[list[int], bool]:
            queue = queues[worker_index]
            if queue:
                batch = [
                    queue.popleft()
                    for _ in range(min(batch_size, len(queue)))
                ]
                return batch, False
            # Own queue empty: steal from the tail of the longest
            # backlog (lowest shard index on ties, deterministically).
            victim = max(
                range(self.n_shards),
                key=lambda s: (len(queues[s]), -s),
            )
            queue = queues[victim]
            if not queue:
                return [], False
            batch = [
                queue.pop() for _ in range(min(batch_size, len(queue)))
            ]
            batch.reverse()
            return batch, True

        def dispatch(worker_index: int) -> None:
            """Hand the next batch (own shard first, else stolen) to the
            worker, restarting it first if it died while idle."""
            while True:
                batch, stolen = take_batch(worker_index)
                if not batch:
                    return
                worker = self._ensure_alive(worker_index)
                batch_id = next(batch_ids)
                items = [
                    (
                        index,
                        tasks[index].fn,
                        tuple(tasks[index].args),
                        dict(tasks[index].kwargs)
                        if tasks[index].kwargs
                        else None,
                        tasks[index].label,
                        index in pinned,
                        task_ctxs[index],
                    )
                    for index in batch
                ]
                try:
                    worker.conn.send(
                        (batch_id, items, want_metrics, want_trace)
                    )
                except (BrokenPipeError, OSError):
                    # Died between the liveness check and the send: put
                    # the batch back (front, preserving order) and loop.
                    queues[worker_index].extendleft(reversed(batch))
                    self._restart(worker_index)
                    continue
                inflight[worker_index] = (batch_id, batch)
                self._batches += 1
                obs_metrics.inc("pool.batches")
                if stolen:
                    self._steals += len(batch)
                    obs_metrics.inc("pool.steals", len(batch))
                return

        def on_reply(worker_index: int, message) -> None:
            nonlocal completed, merged_delta
            expected_id, _batch = inflight.pop(worker_index, (None, None))
            _kind, _wid, batch_id, replies, delta, events = message
            if batch_id != expected_id:
                return  # stale reply from a pre-restart batch
            for index, reply_kind, payload in replies:
                if done[index]:
                    continue
                done[index] = True
                completed += 1
                if reply_kind == "error":
                    errors.append((index, payload))
                    continue
                value = pinned[index] if reply_kind == "ref" else payload
                results[index] = value
                dedup_key = tasks[index].dedup_key
                if (
                    dedup_key is not None
                    and reply_kind == "value"
                    and self._payload_cap > 0
                ):
                    self._payloads[dedup_key] = value
                    self._payloads.move_to_end(dedup_key)
                    while len(self._payloads) > self._payload_cap:
                        self._payloads.popitem(last=False)
            if delta is not None:
                self._shard_totals[worker_index] = self._shard_totals[
                    worker_index
                ].merge(delta)
                merged_delta = merged_delta.merge(delta)
                for gauge_name, gauge_value in delta.gauges.items():
                    if gauge_name.startswith("proc."):
                        obs_metrics.set_gauge(
                            f"pool.worker{worker_index}."
                            f"{gauge_name[len('proc.'):]}",
                            gauge_value,
                        )
            if events:
                tracer = obs_trace.active_tracer()
                if tracer is not None:
                    tracer.extend(events)

        def on_death(worker_index: int) -> None:
            """Requeue the lost batch at the front of the dead worker's
            own queue and respawn, so the replacement re-runs it."""
            _batch_id, batch = inflight.pop(worker_index, (None, []))
            if batch:
                queues[worker_index].extendleft(reversed(batch))
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
            for worker_index in range(self.n_shards):
                if worker_index not in inflight:
                    dispatch(worker_index)
            if completed >= n_tasks and not inflight:
                break
            if not inflight:
                # Nothing running and nothing dispatchable: every
                # remaining task is lost (cannot happen with a healthy
                # requeue path; guard against an infinite spin).
                raise RuntimeError("pool stalled with unfinished tasks")
            waitables = []
            by_waitable = {}
            for worker_index, _ in inflight.items():
                worker = self._workers[worker_index]
                waitables.append(worker.conn)
                by_waitable[worker.conn] = worker_index
                waitables.append(worker.process.sentinel)
                by_waitable[worker.process.sentinel] = worker_index
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

        if tracer is not None:
            tracer.record_span(
                "pool.run",
                run_start,
                tracer.now(),
                cat="pool",
                context=run_ctx,
                tasks=n_tasks,
            )
        if errors:
            errors.sort(key=lambda pair: pair[0])
            index, exc = errors[0]
            raise RuntimeError(
                f"pool task {index} "
                f"({tasks[index].label or tasks[index].fn.__name__}) failed"
            ) from exc
        if metrics:
            return results, merged_delta
        return results
