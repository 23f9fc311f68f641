"""The persistent worker pool (``repro.perf.pool``).

Covers the scheduling contract (one FIFO queue: an idle worker takes
the next task while another is busy), fault tolerance (task errors,
worker death and respawn), and the observability bridges (merged
worker metrics deltas, republished memory gauges, worker-side spans).
"""

import os
import time

import pytest

from repro.core.config import DesignSpace
from repro.core.dse import explore
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.perf.pool import PoolTask, ShardedPool
from repro.workloads.catalog import get_application


# ----------------------------------------------------------------------
# Worker payloads (module-level: picklable)
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _tagged_pid(tag, sleep_s=0.0):
    time.sleep(sleep_s)
    return tag, os.getpid()


def _boom():
    raise ValueError("kaput")


def _sleep_for(seconds):
    time.sleep(seconds)
    return seconds


def _spans_held_by_worker_tracer():
    """One span, then the records the worker's active tracer holds."""
    with obs_trace.span("probe"):
        pass
    return len(obs_trace.active_tracer().events)


def _explore_points(name, n_cus):
    """One single-point DSE in the worker: its grid size."""
    space = DesignSpace(
        cu_counts=(n_cus,), frequencies=(1.0e9,), bandwidths=(3.0e12,)
    )
    return explore([get_application(name)], space).performance[name].size


def _die_once(sentinel_path):
    """Kill the worker on first execution; succeed on the re-run."""
    if not os.path.exists(sentinel_path):
        with open(sentinel_path, "w", encoding="ascii") as fh:
            fh.write("died")
        os._exit(3)
    return "survived"


def _new_pool(n_shards=2):
    try:
        return ShardedPool(n_shards)
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"cannot spawn worker processes: {exc}")


@pytest.fixture(scope="module")
def pool():
    """One long-lived 2-shard pool shared by the cheap tests — reuse
    across tests is itself part of what's under test."""
    p = _new_pool(2)
    yield p
    p.shutdown()


class TestShardedPoolBasics:
    def test_results_in_submission_order(self, pool):
        tasks = [PoolTask(fn=_square, args=(i,)) for i in range(17)]
        assert pool.run(tasks) == [i * i for i in range(17)]

    def test_empty_task_list(self, pool):
        assert pool.run([]) == []

    def test_closed_pool_raises(self):
        p = _new_pool(1)
        p.shutdown()
        with pytest.raises(RuntimeError):
            p.run([PoolTask(fn=_square, args=(1,))])
        p.shutdown()  # idempotent

    @pytest.mark.parametrize("n_shards", [2.5, 2.0, True])
    def test_worker_count_must_be_real_integer(self, n_shards):
        with pytest.raises(ValueError, match="positive integer"):
            ShardedPool(n_shards)

    def test_task_counter_advances(self, pool):
        before = pool.stats().tasks
        pool.run([PoolTask(fn=_square, args=(i,)) for i in range(5)])
        assert pool.stats().tasks == before + 5


class TestQueue:
    def test_idle_worker_takes_queued_tasks(self, pool):
        # Task 0 keeps one worker busy; the other worker takes every
        # queued task in turn instead of waiting behind it.
        tasks = [PoolTask(fn=_tagged_pid, args=(0, 0.5))] + [
            PoolTask(fn=_tagged_pid, args=(i,)) for i in range(1, 12)
        ]
        out = pool.run(tasks)
        assert [tag for tag, _ in out] == list(range(12))
        pids = [pid for _, pid in out]
        assert len(set(pids)) == 2
        assert pids[0] not in pids[1:]


class TestFaultTolerance:
    def test_error_propagates_with_label(self, pool):
        with pytest.raises(RuntimeError, match="exploder") as excinfo:
            pool.run([PoolTask(fn=_boom, label="exploder")])
        assert "kaput" in str(excinfo.value.__cause__)

    def test_pool_usable_after_error(self, pool):
        with pytest.raises(RuntimeError):
            pool.run([PoolTask(fn=_boom)])
        assert pool.run([PoolTask(fn=_square, args=(6,))]) == [36]

    def test_worker_death_requeues_and_restarts(self, tmp_path):
        with _new_pool(2) as p:
            sentinel = str(tmp_path / "died-once")
            tasks = [PoolTask(fn=_square, args=(i,)) for i in range(4)]
            tasks.insert(2, PoolTask(fn=_die_once, args=(sentinel,)))
            results = p.run(tasks)
            assert results[2] == "survived"
            assert [r for i, r in enumerate(results) if i != 2] == [
                0, 1, 4, 9,
            ]
            assert p.stats().worker_restarts >= 1

    def test_kill_worker_then_reuse(self):
        with _new_pool(2) as p:
            p.run([PoolTask(fn=_square, args=(1,))])
            before = p.stats().worker_restarts
            p.kill_worker(0)
            p.kill_worker(1)
            out = p.run([PoolTask(fn=_square, args=(i,)) for i in range(6)])
            assert out == [i * i for i in range(6)]
            assert p.stats().worker_restarts == before + 2

    def test_shutdown_while_run_in_flight(self):
        """Regression: shutting the pool down mid-``run`` (from another
        thread, as the serving layer's close path does) must fail the
        run promptly instead of respawning replacement workers — the
        shutdown finalizer runs only once, so replacements spawned
        after it would never be reaped — and must leave no live worker
        processes behind."""
        import threading

        p = _new_pool(1)
        procs = [w.process for w in p._workers if w is not None]
        failure: dict = {}

        def runner():
            try:
                p.run(
                    [PoolTask(fn=_sleep_for, args=(0.5,))
                     for _ in range(6)]
                )
                failure["error"] = None
            except RuntimeError as exc:
                failure["error"] = exc

        thread = threading.Thread(target=runner)
        thread.start()
        time.sleep(0.2)  # first task in flight on the worker
        p.shutdown()
        thread.join(timeout=30)  # pre-fix guard: the run must not hang
        assert not thread.is_alive()
        assert isinstance(failure.get("error"), RuntimeError)
        assert "shut down" in str(failure["error"])
        # No replacement workers were spawned and everything is dead.
        deadline = time.monotonic() + 10
        live = [w for w in p._workers if w is not None]
        all_procs = procs + [w.process for w in live]
        while time.monotonic() < deadline:
            if not any(proc.is_alive() for proc in all_procs):
                break
            time.sleep(0.05)
        assert not any(proc.is_alive() for proc in all_procs)
        p.shutdown()  # still idempotent


class TestObservabilityBridges:
    def test_metrics_deltas_merge_across_workers(self):
        tasks = [
            PoolTask(fn=_explore_points, args=(name, n_cus))
            for name in ("CoMD", "MaxFlops")
            for n_cus in (192, 256, 320)
        ]
        with _new_pool(2) as p:
            assert p.run(tasks) == [1] * len(tasks)
            p.run(tasks)
            merged = p.merged_snapshot()
        # One explore per task on either worker: every one of the two
        # runs' explores is merged.
        assert merged.counter("dse.explores") == 2 * len(tasks)

    def test_worker_memory_gauges_republished(self):
        with _new_pool(2) as p:
            p.run([PoolTask(fn=_square, args=(i,)) for i in range(4)])
            gauges = obs_metrics.default_registry().snapshot().gauges
            worker_gauges = [
                name for name in gauges if name.startswith("pool.worker")
            ]
            assert any(name.endswith(".rss_bytes") for name in worker_gauges)
            assert all(gauges[name] > 0 for name in worker_gauges)

    def test_worker_spans_merged_into_parent_trace(self):
        with _new_pool(2) as p:
            with obs_trace.trace() as tracer:
                p.run(
                    [
                        PoolTask(fn=_square, args=(i,), label=f"task.{i}")
                        for i in range(4)
                    ]
                )
            names = {e["name"] for e in tracer.events}
            assert {f"task.{i}" for i in range(4)} <= names
            worker_pids = {
                e["pid"]
                for e in tracer.events
                if e["name"].startswith("task.")
            }
            assert worker_pids and os.getpid() not in worker_pids

    def test_untraced_runs_leave_no_records_in_the_worker(self):
        # Forked while a tracer is active, the worker holds a copy of
        # it; untraced tasks must not pile records into that copy.
        with obs_trace.trace():
            p = _new_pool(1)
        with p:
            held = [
                p.run([PoolTask(fn=_spans_held_by_worker_tracer)])[0]
                for _ in range(3)
            ]
        assert held == [1, 1, 1]

    def test_worker_task_spans_share_one_timeline_per_worker(self):
        """A worker keeps one tracer for its lifetime: the spans of its
        successive tasks follow each other on its track instead of all
        starting at the origin of a per-task tracer."""
        with _new_pool(2) as p:
            with obs_trace.trace() as tracer:
                p.run(
                    [
                        PoolTask(fn=_sleep_for, args=(0.02,), label=f"task.{i}")
                        for i in range(6)
                    ]
                )
        (run_event,) = [
            e for e in tracer.events if e["name"] == "pool.run"
        ]
        assert run_event["args"] == {"tasks": 6}
        by_track: dict = {}
        for event in tracer.events:
            if event["name"].startswith("task."):
                by_track.setdefault((event["pid"], event["tid"]), []).append(
                    (event["ts"], event["ts"] + event["dur"])
                )
        assert sum(map(len, by_track.values())) == 6
        for spans in by_track.values():
            spans.sort()
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert end <= start
