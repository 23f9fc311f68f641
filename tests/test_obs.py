"""Tests for the observability layer (:mod:`repro.obs`).

Covers the metrics registry (counters, gauges, histograms, snapshot
merge/diff algebra, the disabled fast path), the span tracer with an
injected fake clock (deterministic Chrome trace-event output), the run
manifest, cache-stat ergonomics, the benchmark-JSON compaction helpers,
and the acceptance criterion that ``parallel_explore(metrics=True)``
returns a merged snapshot whose cache totals equal the sum of the
per-worker snapshots.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.trace import Tracer
from repro.perf.evalcache import CacheStats
from repro.util import benchjson


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        snap = reg.snapshot()
        assert snap.counter("a") == 5
        assert snap.counter("missing") == 0

    def test_gauges_last_value_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("temp", 1.5)
        reg.set_gauge("temp", 2.5)
        assert reg.snapshot().gauges["temp"] == 2.5

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry()
        reg.observe("lat", 2e-6)   # second bucket (> 1e-6)
        reg.observe("lat", 0.5)
        reg.observe("lat", 1e9)    # beyond the last bound -> overflow
        hist = reg.snapshot().histograms["lat"]
        assert hist.count == 3
        assert hist.total == pytest.approx(2e-6 + 0.5 + 1e9)
        assert sum(hist.counts) == 3
        assert len(hist.counts) == len(DEFAULT_BUCKETS) + 1
        assert hist.counts[-1] == 1  # the 1e9 overflow observation
        assert hist.mean == pytest.approx(hist.total / 3)

    def test_timed_records_a_duration(self):
        ticks = iter([10.0, 10.25])
        reg = MetricsRegistry(clock=lambda: next(ticks))
        with reg.timed("step_seconds"):
            pass
        hist = reg.snapshot().histograms["step_seconds"]
        assert hist.count == 1
        assert hist.total == pytest.approx(0.25)

    def test_clear_resets_everything(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 0.1)
        reg.clear()
        snap = reg.snapshot()
        assert not snap.counters and not snap.gauges and not snap.histograms


class TestSnapshotAlgebra:
    def test_merge_sums_counters_and_histograms(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.inc("hits", 2)
        b.inc("hits", 3)
        b.inc("misses", 1)
        a.observe("lat", 0.01)
        b.observe("lat", 0.01)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.counter("hits") == 5
        assert merged.counter("misses") == 1
        assert merged.histograms["lat"].count == 2

    def test_merge_gauges_take_the_other_side(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.set_gauge("g", 1.0)
        b.set_gauge("g", 9.0)
        assert a.snapshot().merge(b.snapshot()).gauges["g"] == 9.0

    def test_diff_isolates_activity_between_snapshots(self):
        reg = MetricsRegistry()
        reg.inc("work", 10)
        before = reg.snapshot()
        reg.inc("work", 7)
        reg.inc("other")
        delta = reg.snapshot().diff(before)
        assert delta.counter("work") == 7
        assert delta.counter("other") == 1

    def test_diff_drops_unchanged_counters(self):
        reg = MetricsRegistry()
        reg.inc("idle", 3)
        before = reg.snapshot()
        reg.inc("busy")
        delta = reg.snapshot().diff(before)
        assert "idle" not in delta.counters

    def test_empty_is_a_merge_identity(self):
        reg = MetricsRegistry()
        reg.inc("x", 4)
        reg.observe("h", 0.2)
        snap = reg.snapshot()
        merged = MetricsSnapshot.empty().merge(snap)
        assert merged.counters == snap.counters
        assert merged.histograms["h"].counts == snap.histograms["h"].counts

    def test_as_dict_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set_gauge("g", 1.25)
        reg.observe("h", 0.3)
        text = json.dumps(reg.snapshot().as_dict())
        data = json.loads(text)
        assert data["counters"]["c"] == 2
        assert data["histograms"]["h"]["count"] == 1


class TestModuleFastPath:
    def test_disabled_is_a_no_op(self):
        reg = obs_metrics.default_registry()
        before = reg.snapshot()
        with obs_metrics.disabled():
            obs_metrics.inc("should.not.exist", 100)
            obs_metrics.observe("nor.this", 1.0)
            with obs_metrics.timed("nor.this.timer"):
                pass
        after = reg.snapshot().diff(before)
        assert after.counter("should.not.exist") == 0
        assert "nor.this" not in after.histograms

    def test_enabled_flag_restored_after_disabled_block(self):
        assert obs_metrics.metrics_enabled()
        with obs_metrics.disabled():
            assert not obs_metrics.metrics_enabled()
        assert obs_metrics.metrics_enabled()

    def test_module_inc_reaches_default_registry(self):
        before = obs_metrics.snapshot()
        obs_metrics.inc("test.fastpath.counter", 2)
        delta = obs_metrics.snapshot().diff(before)
        assert delta.counter("test.fastpath.counter") == 2


# ----------------------------------------------------------------------
# Tracer (injected fake clock -> fully deterministic output)
# ----------------------------------------------------------------------
class FakeClock:
    """A clock advancing 1 ms per reading, starting at t=1.0 s."""

    def __init__(self, start: float = 1.0, step: float = 1e-3):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestTracer:
    def test_span_ts_and_dur_are_deterministic(self):
        tracer = Tracer(clock=FakeClock())
        # clock readings: t0=1.000, enter=1.001, exit=1.002
        with tracer.span("work"):
            pass
        (event,) = tracer.events
        assert event["ts"] == pytest.approx(1000.0)   # us since t0
        assert event["dur"] == pytest.approx(1000.0)  # 1 ms span
        assert event["ph"] == "X"
        assert event["name"] == "work"

    def test_nested_spans_record_inner_before_outer(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [e["name"] for e in tracer.events]
        assert names == ["inner", "outer"]
        outer = tracer.events[1]
        inner = tracer.events[0]
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]

    def test_span_args_are_recorded(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("run", cat="sim", engine="array", accesses=10):
            pass
        (event,) = tracer.events
        assert event["cat"] == "sim"
        # User args survive alongside the stamped span-context ids.
        assert event["args"]["engine"] == "array"
        assert event["args"]["accesses"] == 10
        assert event["args"]["trace_id"] == tracer.root.trace_id
        assert event["args"]["span_id"] == "0.1"
        assert event["args"]["parent_id"] == "0"

    def test_chrome_trace_event_schema(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        tracer.instant("marker")
        doc = tracer.to_chrome()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert isinstance(doc["traceEvents"], list)
        for event in doc["traceEvents"]:
            assert isinstance(event["name"], str)
            assert event["ph"] in {"X", "i"}
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert isinstance(event["dur"], (int, float))
                assert event["dur"] >= 0

    def test_write_and_load_round_trip(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("persisted"):
            pass
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        data = json.loads(path.read_text())
        assert data["traceEvents"][0]["name"] == "persisted"

    def test_module_span_is_noop_without_active_tracer(self):
        assert obs_trace.active_tracer() is None
        with obs_trace.span("ignored"):
            pass  # must not raise, must not record anywhere

    def test_trace_installs_and_restores_active_tracer(self):
        with obs_trace.trace(clock=FakeClock()) as tracer:
            assert obs_trace.active_tracer() is tracer
            with obs_trace.span("seen"):
                pass
        assert obs_trace.active_tracer() is None
        assert [e["name"] for e in tracer.events] == ["seen"]

    def test_trace_nesting_restores_the_outer_tracer(self):
        with obs_trace.trace(clock=FakeClock()) as outer:
            with obs_trace.trace(clock=FakeClock()) as inner:
                assert obs_trace.active_tracer() is inner
            assert obs_trace.active_tracer() is outer

    def test_extend_appends_foreign_events_verbatim(self):
        # The pool ships worker-side span buffers back to the parent
        # tracer with extend(): events keep their own pid/ts.
        parent = Tracer(clock=FakeClock())
        with parent.span("parent.work"):
            pass
        foreign = [
            {"name": "worker.task", "cat": "pool", "ph": "X",
             "ts": 5.0, "dur": 2.0, "pid": 99999, "tid": 1},
        ]
        parent.extend(foreign)
        assert [e["name"] for e in parent.events] == [
            "parent.work", "worker.task",
        ]
        merged = parent.to_chrome()["traceEvents"]
        assert merged[1]["pid"] == 99999
        assert merged[1]["ts"] == 5.0


# ----------------------------------------------------------------------
# SpanContext: deterministic ids, cross-process parent/child edges
# ----------------------------------------------------------------------
class TestSpanContext:
    def test_root_and_as_args(self):
        root = obs_trace.SpanContext.root("t1")
        assert (root.trace_id, root.span_id, root.parent_id) == (
            "t1", "0", None,
        )
        assert root.as_args() == {"trace_id": "t1", "span_id": "0"}
        child = obs_trace.SpanContext("t1", "0.1", "0")
        assert child.as_args() == {
            "trace_id": "t1", "span_id": "0.1", "parent_id": "0",
        }

    def test_context_is_picklable(self):
        import pickle

        ctx = obs_trace.SpanContext("t1", "0.3.1", "0.3")
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_child_ids_are_hierarchical_and_deterministic(self):
        tracer = Tracer(
            clock=FakeClock(), context=obs_trace.SpanContext.root("t1")
        )
        first = tracer.child_context()
        second = tracer.child_context()
        grandchild = tracer.child_context(parent=first)
        assert first.span_id == "0.1"
        assert second.span_id == "0.2"
        assert grandchild.span_id == "0.1.1"
        assert grandchild.parent_id == "0.1"
        assert grandchild.trace_id == "t1"

    def test_nested_spans_stamp_parent_edges(self):
        tracer = Tracer(
            clock=FakeClock(), context=obs_trace.SpanContext.root("t1")
        )
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events
        assert outer["args"]["span_id"] == "0.1"
        assert outer["args"]["parent_id"] == "0"
        assert inner["args"]["span_id"] == "0.1.1"
        assert inner["args"]["parent_id"] == "0.1"

    def test_record_span_uses_raw_clock_readings(self):
        clock = FakeClock()  # t0 = 1.000
        tracer = Tracer(
            clock=clock, context=obs_trace.SpanContext.root("t1")
        )
        start = tracer.now()  # 1.001
        end = tracer.now()    # 1.002
        ctx = tracer.record_span("queue_wait", start, end, seq=7)
        (event,) = tracer.events
        assert event["ts"] == pytest.approx(1000.0)
        assert event["dur"] == pytest.approx(1000.0)
        assert event["args"]["seq"] == 7
        assert ctx.span_id == "0.1"

    def test_explicit_parent_overrides_thread_stack(self):
        tracer = Tracer(
            clock=FakeClock(), context=obs_trace.SpanContext.root("t1")
        )
        request = tracer.child_context()  # 0.1
        with tracer.span("batch", parent=request):
            pass
        (event,) = tracer.events
        assert event["args"]["span_id"] == "0.1.1"
        assert event["args"]["parent_id"] == "0.1"

    def test_cross_worker_merge_pins_ids_and_timestamps(self):
        """A shipped context + extend() yields one connected tree with
        exact ids and exact (fake-clock) timestamps on both sides."""
        parent = Tracer(
            clock=FakeClock(start=1.0),
            context=obs_trace.SpanContext.root("t1"),
        )
        run_ctx = parent.child_context()                 # 0.1
        task_ctx = parent.child_context(parent=run_ctx)  # 0.1.1

        # Worker process: its own tracer, its own clock, opens its span
        # under the context shipped in the task envelope.
        worker = Tracer(clock=FakeClock(start=5.0))
        with worker.span("pool.task", cat="pool", context=task_ctx):
            pass

        start = parent.now()
        end = parent.now()
        parent.record_span(
            "pool.run", start, end, cat="pool", context=run_ctx
        )
        parent.extend(worker.events)

        run_event, task_event = parent.events
        assert run_event["args"] == {
            "trace_id": "t1", "span_id": "0.1", "parent_id": "0",
        }
        assert task_event["args"] == {
            "trace_id": "t1", "span_id": "0.1.1", "parent_id": "0.1",
        }
        # The child's parent_id is exactly the parent's span_id: the
        # edge survives the merge.
        assert task_event["args"]["parent_id"] == (
            run_event["args"]["span_id"]
        )
        # Timestamps are exact on each side's own fake timeline.
        assert run_event["ts"] == pytest.approx(1000.0)
        assert run_event["dur"] == pytest.approx(1000.0)
        assert task_event["ts"] == pytest.approx(1000.0)
        assert task_event["dur"] == pytest.approx(1000.0)

    def test_worker_children_never_collide_across_workers(self):
        # Two workers each mint children under their own shipped id.
        parent = Tracer(
            clock=FakeClock(), context=obs_trace.SpanContext.root("t1")
        )
        task_a = parent.child_context()  # 0.1
        task_b = parent.child_context()  # 0.2
        worker_a = Tracer(clock=FakeClock())
        worker_b = Tracer(clock=FakeClock())
        sub_a = worker_a.child_context(parent=task_a)
        sub_b = worker_b.child_context(parent=task_b)
        assert sub_a.span_id == "0.1.1"
        assert sub_b.span_id == "0.2.1"
        assert sub_a.span_id != sub_b.span_id

    def test_module_current_context(self):
        assert obs_trace.current_context() is None
        with obs_trace.trace(clock=FakeClock()) as tracer:
            assert obs_trace.current_context() == tracer.root
            with obs_trace.span("outer") as ctx:
                assert obs_trace.current_context() == ctx


# ----------------------------------------------------------------------
# CacheStats ergonomics
# ----------------------------------------------------------------------
class TestCacheStats:
    def test_rates(self):
        stats = CacheStats(hits=6, misses=2, spill_hits=2)
        assert stats.requests == 10
        # hit_rate counts both in-memory and spill hits over lookups.
        assert stats.hit_rate == pytest.approx(0.8)
        assert stats.spill_hit_rate == pytest.approx(0.2)

    def test_zero_requests_rates_are_zero(self):
        stats = CacheStats()
        assert stats.requests == 0
        assert stats.hit_rate == 0.0
        assert stats.spill_hit_rate == 0.0

    def test_as_dict(self):
        stats = CacheStats(hits=3, misses=1)
        data = stats.as_dict()
        assert data["hits"] == 3
        assert data["requests"] == 4
        assert data["hit_rate"] == pytest.approx(0.75)
        assert data["spill_hit_rate"] == 0.0
        json.dumps(data)  # JSON-serializable by construction

    def test_repr_is_readable(self):
        text = repr(CacheStats(hits=1, misses=3))
        assert "hits=1" in text
        assert "hit_rate=0.250" in text


# ----------------------------------------------------------------------
# Instrumentation: subsystems publish to the default registry
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_apu_sim_counters(self):
        from repro.sim.apu_sim import ApuSimulator
        from repro.workloads.calibration import default_calibration_trace

        trace = default_calibration_trace(n_accesses=500)
        before = obs_metrics.snapshot()
        ApuSimulator().run(trace)
        delta = obs_metrics.snapshot().diff(before)
        assert delta.counter("sim.apu.runs") == 1
        assert delta.counter("sim.apu.trace_rows") == 500
        assert "sim.apu.run_seconds" in delta.histograms

    def test_cache_memo_publishes_hits_and_misses(self):
        from repro.core.node import NodeModel
        from repro.perf.evalcache import EvalCache
        from repro.workloads.catalog import get_application

        cache = EvalCache()
        model = NodeModel()
        profile = get_application("CoMD")
        cus = np.array([64.0])
        freqs = np.array([1.0])
        bws = np.array([1.0])
        before = obs_metrics.snapshot()
        cache.evaluate_arrays(model, profile, cus, freqs, bws)
        cache.evaluate_arrays(model, profile, cus, freqs, bws)
        delta = obs_metrics.snapshot().diff(before)
        assert delta.counter("cache.eval.misses") == 1
        assert delta.counter("cache.eval.hits") == 1

    def test_dse_explore_counters(self):
        from repro.core.dse import explore
        from repro.workloads.catalog import get_application

        before = obs_metrics.snapshot()
        explore([get_application("CoMD")], cache=False)
        delta = obs_metrics.snapshot().diff(before)
        assert delta.counter("dse.explores") == 1
        assert delta.counter("dse.grid_points") > 0


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_build_manifest_structure(self):
        from repro.obs import manifest as obs_manifest

        doc = obs_manifest.build_manifest(
            command="test", experiments=["fig7"],
            wall_times={"fig7": 0.5}, clock=lambda: 1234.0,
        )
        assert doc["manifest_version"] == obs_manifest.MANIFEST_VERSION
        assert doc["created_unix"] == 1234.0
        assert doc["command"] == "test"
        assert doc["experiments"] == ["fig7"]
        assert doc["wall_times_s"] == {"fig7": 0.5}
        assert "sim.apu_sim" in doc["engines"]
        assert doc["engines"]["sim.apu_sim"]["default"] == "array"
        assert "eval" in doc["caches"]
        assert "hit_rate" in doc["caches"]["eval"]
        assert "counters" in doc["metrics"]

    def test_write_manifest_creates_dirs_and_valid_json(self, tmp_path):
        from repro.obs import manifest as obs_manifest

        path = tmp_path / "sub" / "manifest.json"
        obs_manifest.write_manifest(
            str(path), command="t", experiments=[], wall_times={},
        )
        data = json.loads(path.read_text())
        assert data["manifest_version"] >= 1
        assert data["python"]

    def test_manifest_carries_process_memory_gauges(self):
        from repro.obs import manifest as obs_manifest
        from repro.obs.proc import rss_bytes

        if rss_bytes() is None:  # pragma: no cover
            pytest.skip("no /proc/self/statm on this platform")
        doc = obs_manifest.build_manifest(command="t", clock=lambda: 0.0)
        gauges = doc["metrics"]["gauges"]
        assert gauges["proc.rss_bytes"] > 0
        assert gauges["proc.peak_rss_bytes"] >= gauges["proc.rss_bytes"] * 0


# ----------------------------------------------------------------------
# Process memory gauges (repro.obs.proc)
# ----------------------------------------------------------------------
class TestProcGauges:
    def test_readings_are_positive_or_none(self):
        from repro.obs import proc

        rss = proc.rss_bytes()
        peak = proc.peak_rss_bytes()
        assert rss is None or rss > 0
        assert peak is None or peak > 0

    def test_publish_into_explicit_registry(self):
        from repro.obs import proc

        registry = MetricsRegistry()
        readings = proc.publish_memory_gauges(registry)
        snap = registry.snapshot()
        for name, value in readings.items():
            assert name.startswith("proc.")
            assert snap.gauges[name] == value

    def test_publish_respects_disabled_flag(self):
        from repro.obs import proc

        registry = obs_metrics.default_registry()
        before = set(registry.snapshot().gauges)
        with obs_metrics.disabled():
            readings = proc.publish_memory_gauges(prefix="proc.test")
        after = set(registry.snapshot().gauges)
        # Readings are still returned, but nothing lands in the
        # registry while the module-level helpers are disabled.
        assert not any(name in after - before for name in readings)

    def test_custom_prefix(self):
        from repro.obs import proc

        registry = MetricsRegistry()
        readings = proc.publish_memory_gauges(registry, prefix="mem")
        assert all(name.startswith("mem.") for name in readings)


# ----------------------------------------------------------------------
# parallel_explore(metrics=True): the acceptance criterion
# ----------------------------------------------------------------------
class TestParallelMetrics:
    def test_merged_totals_equal_sum_of_worker_snapshots(self):
        from repro.perf.parallel import parallel_explore
        from repro.perf.pool import ShardedPool
        from repro.workloads.catalog import get_application

        profiles = [get_application("CoMD"), get_application("HPGMG")]
        n_chunks = 3
        with ShardedPool(2) as pool:
            result, snap = parallel_explore(
                profiles, n_chunks=n_chunks, pool=pool, metrics=True
            )
        # One cache.eval lookup per (profile block, CU slab) task; fresh
        # worker caches mean every lookup is a hit or a miss, never
        # dropped.
        tasks = len(profiles) * n_chunks
        total = snap.counter("cache.eval.hits") + snap.counter(
            "cache.eval.misses"
        )
        assert total == tasks
        assert result.best_mean_index >= 0

    def test_metrics_false_returns_bare_result(self):
        from repro.core.dse import DseResult
        from repro.perf.parallel import parallel_explore
        from repro.perf.pool import ShardedPool
        from repro.workloads.catalog import get_application

        with ShardedPool(2) as pool:
            result = parallel_explore(
                [get_application("CoMD")], n_chunks=2, pool=pool
            )
        assert isinstance(result, DseResult)


# ----------------------------------------------------------------------
# Benchmark-JSON compaction helpers
# ----------------------------------------------------------------------
SAMPLE_BENCH = {
    "machine_info": {"cpu": "x"},
    "benchmarks": [
        {
            "fullname": "benchmarks/test_a.py::test_a",
            "stats": {
                "mean": 0.01, "stddev": 0.001, "min": 0.009, "rounds": 5,
                "data": [0.009, 0.01, 0.011, 0.01, 0.01],
            },
        }
    ],
}


class TestBenchJson:
    def test_summarize(self):
        summary = benchjson.summarize(SAMPLE_BENCH)
        entry = summary["benchmarks/test_a.py::test_a"]
        assert entry["mean_s"] == 0.01
        assert entry["rounds"] == 5

    def test_compact_file_and_load_summary(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(SAMPLE_BENCH, indent=4))
        assert len(path.read_text().splitlines()) > 10  # legacy pretty
        benchjson.compact_file(str(path))
        text = path.read_text()
        assert len(text.splitlines()) == 1  # compact
        data = json.loads(text)
        assert benchjson.SUMMARY_KEY in data
        assert data["benchmarks"] == SAMPLE_BENCH["benchmarks"]
        summary = benchjson.load_summary(str(path))
        assert summary["benchmarks/test_a.py::test_a"]["mean_s"] == 0.01

    def test_load_summary_legacy_pretty_format(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(SAMPLE_BENCH, indent=4))
        summary = benchjson.load_summary(str(path))
        assert summary["benchmarks/test_a.py::test_a"]["rounds"] == 5

    def test_compact_is_idempotent(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(SAMPLE_BENCH))
        benchjson.compact_file(str(path))
        first = path.read_text()
        benchjson.compact_file(str(path))
        assert path.read_text() == first
