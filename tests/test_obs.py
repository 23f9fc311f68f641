"""Tests for the observability layer (:mod:`repro.obs`).

Covers the metrics registry (counters, gauges, histograms, snapshot
merge/diff algebra, the disabled fast path), the span tracer with an
injected fake clock (deterministic Chrome trace-event output), the run
manifest, and the acceptance criterion that a pool's merged worker
snapshot has counter totals equal to the sum of the per-worker
snapshots.
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
        assert event["args"] == {"engine": "array", "accesses": 10}

    def test_chrome_trace_event_schema(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        tracer.async_span("request", tracer.now(), tracer.now(), 7)
        doc = tracer.to_chrome()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert isinstance(doc["traceEvents"], list)
        assert [e["ph"] for e in doc["traceEvents"]] == ["X", "b", "e"]
        for event in doc["traceEvents"]:
            assert isinstance(event["name"], str)
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert isinstance(event["dur"], (int, float))
                assert event["dur"] >= 0
            else:
                assert event["id"] == 7

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

    def test_async_span_uses_raw_clock_readings(self):
        clock = FakeClock()  # t0 = 1.000
        tracer = Tracer(clock=clock)
        start = tracer.now()  # 1.001
        end = tracer.now()    # 1.002
        tracer.async_span("queue_wait", start, end, 7, cat="serve", seq=7)
        begin, finish = tracer.events
        assert (begin["ph"], finish["ph"]) == ("b", "e")
        assert begin["id"] == finish["id"] == 7
        assert begin["ts"] == pytest.approx(1000.0)
        assert finish["ts"] == pytest.approx(2000.0)
        assert begin["args"] == {"seq": 7}


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

    def test_fig8_measured_times_dram_cache_replays(self):
        from repro.experiments.miss_sensitivity import (
            CAPACITY_FRACTIONS,
            run_fig8_measured,
        )
        from repro.experiments.runner import all_profiles

        before = obs_metrics.snapshot()
        run_fig8_measured()
        delta = obs_metrics.snapshot().diff(before)
        hist = delta.histograms["memsys.dramcache.run_seconds"]
        assert hist.count == len(all_profiles()) * len(CAPACITY_FRACTIONS)
        assert hist.total > 0.0

    def test_rowbuffer_and_manager_runs_timed(self):
        from repro.memsys.manager import HotnessMigrationPolicy, MemoryManager
        from repro.memsys.rowbuffer import RowBufferSim

        addrs = np.arange(2000, dtype=np.int64) * 4096
        before = obs_metrics.snapshot()
        RowBufferSim().run(addrs)
        MemoryManager(64 * 4096, HotnessMigrationPolicy()).run_batch(
            np.array_split(addrs, 2)
        )
        delta = obs_metrics.snapshot().diff(before)
        assert delta.histograms["memsys.rowbuffer.run_seconds"].count == 1
        assert delta.histograms["memsys.manager.run_seconds"].count == 1

    def test_cache_memo_publishes_hits_and_misses(self):
        import asyncio

        from repro.serve import EvalService
        from repro.workloads.catalog import get_application

        async def ask_twice():
            async with EvalService(cache={}) as service:
                for _ in range(2):
                    await service.evaluate(
                        get_application("CoMD"), 64, 1.0e9, 1.0e12
                    )

        before = obs_metrics.snapshot()
        asyncio.run(ask_twice())
        delta = obs_metrics.snapshot().diff(before)
        assert delta.counter("cache.eval.misses") == 1
        assert delta.counter("cache.eval.hits") == 1

    def test_dse_explore_counters(self):
        from repro.core.dse import explore
        from repro.workloads.catalog import get_application

        before = obs_metrics.snapshot()
        explore([get_application("CoMD")])
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
        # The DSE's is the one engine chosen at run time.
        assert list(doc["engines"]) == ["core.dse"]
        assert doc["engines"]["core.dse"]["available"] == ["tensor", "point"]
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
        assert gauges["proc.peak_rss_bytes"] >= gauges["proc.rss_bytes"]


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

    def test_published_peak_is_at_least_the_current_reading(self):
        from repro.obs import proc

        if proc.rss_bytes() is None or proc.peak_rss_bytes() is None:
            pytest.skip("no RSS readings on this platform")  # pragma: no cover
        # Grow the resident set between publications: a fresh statm
        # reading can run ahead of ru_maxrss.
        held = []
        for _ in range(5):
            held.append(np.ones(1 << 20))
            readings = proc.publish_memory_gauges(MetricsRegistry())
            assert readings["proc.peak_rss_bytes"] >= \
                readings["proc.rss_bytes"]

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
# Pool worker metrics: the acceptance criterion
# ----------------------------------------------------------------------
def _eval_dse_grid(name):
    """One DSE over the default grid in a pool worker."""
    from repro.core.dse import explore
    from repro.workloads.catalog import get_application

    return explore([get_application(name)]).performance[name].size


class TestParallelMetrics:
    def test_merged_totals_equal_sum_of_worker_snapshots(self):
        from repro.core.config import DesignSpace
        from repro.perf.pool import PoolTask, ShardedPool

        names = ["CoMD", "HPGMG", "CoMD", "MaxFlops"]
        with ShardedPool(2) as pool:
            sizes = pool.run(
                [PoolTask(fn=_eval_dse_grid, args=(n,)) for n in names]
            )
            merged = pool.merged_snapshot()
        assert sizes == [DesignSpace().size] * len(names)
        # One explore per task, on whichever worker took it: every
        # worker's count is merged, never dropped.
        assert merged.counter("dse.explores") == len(names)
