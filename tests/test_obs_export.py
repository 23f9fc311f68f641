"""Tests for live telemetry export.

Covers the Prometheus text-exposition formatter and its exact-inverse
parser (including a hypothesis property: format -> parse -> equal
snapshot), and the :class:`~repro.obs.export.PeriodicSampler` JSONL
interval-diff stream under a fake clock (and the algebra tying the
interval diffs back to the cumulative snapshot).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.export import (
    PeriodicSampler,
    parse_prometheus_text,
    prometheus_text,
    write_prometheus,
)
from repro.obs.metrics import (
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)


class FakeClock:
    """A clock advancing `step` seconds per reading."""

    def __init__(self, start: float = 1.0, step: float = 0.0):
        self.now = start
        self.step = step

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def _hist(
    bounds=(0.001, 0.01, 0.1), counts=(1, 2, 3, 4), total=0.5
) -> HistogramSnapshot:
    return HistogramSnapshot(
        bounds=tuple(bounds),
        counts=tuple(counts),
        total=total,
        count=sum(counts),
    )


class TestPrometheusText:
    def test_counter_family(self):
        snap = MetricsSnapshot(counters={"cache.eval.hits": 7})
        text = prometheus_text(snap)
        assert "# TYPE repro_cache_eval_hits_total counter" in text
        assert "repro_cache_eval_hits_total 7" in text.splitlines()

    def test_gauge_family(self):
        snap = MetricsSnapshot(gauges={"proc.rss_bytes": 12345.0})
        text = prometheus_text(snap)
        assert "# TYPE repro_proc_rss_bytes gauge" in text
        assert "repro_proc_rss_bytes 12345.0" in text.splitlines()

    def test_histogram_buckets_are_cumulative(self):
        snap = MetricsSnapshot(histograms={"lat": _hist()})
        lines = prometheus_text(snap).splitlines()
        buckets = [l for l in lines if "_bucket" in l]
        assert buckets == [
            'repro_lat_bucket{le="0.001"} 1',
            'repro_lat_bucket{le="0.01"} 3',
            'repro_lat_bucket{le="0.1"} 6',
            'repro_lat_bucket{le="+Inf"} 10',
        ]
        assert "repro_lat_sum 0.5" in lines
        assert "repro_lat_count 10" in lines

    def test_output_is_sorted_and_deterministic(self):
        snap = MetricsSnapshot(counters={"b": 1, "a": 2}, gauges={"z": 0.0})
        assert prometheus_text(snap) == prometheus_text(snap)
        lines = prometheus_text(snap).splitlines()
        assert lines.index("repro_a_total 2") < lines.index(
            "repro_b_total 1"
        )

    def test_round_trip_hand_built(self):
        snap = MetricsSnapshot(
            counters={"runs": 3},
            gauges={"depth": -2.5},
            histograms={"lat": _hist(total=0.125)},
        )
        assert parse_prometheus_text(prometheus_text(snap)) == snap

    def test_parse_rejects_untyped_sample(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("repro_x_total 3\n")

    def test_write_prometheus_file(self, tmp_path):
        snap = MetricsSnapshot(counters={"n": 1})
        path = tmp_path / "out.prom"
        write_prometheus(str(path), snap)
        assert parse_prometheus_text(path.read_text()) == snap


# Names already Prometheus-safe round-trip exactly; each family uses a
# distinct prefix so `_total`/`_bucket`/`_sum`/`_count` suffixes can
# never collide across families.
_name = st.from_regex(r"[a-z][a-z0-9_]{0,12}", fullmatch=True).filter(
    lambda s: not s.endswith(("_total", "_bucket", "_sum", "_count", "_"))
)
_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _snapshots(draw):
    counters = {
        f"c_{name}": draw(st.integers(min_value=0, max_value=10**9))
        for name in draw(st.sets(_name, max_size=3))
    }
    gauges = {
        f"g_{name}": draw(_finite)
        for name in draw(st.sets(_name, max_size=3))
    }
    histograms = {}
    for name in draw(st.sets(_name, max_size=2)):
        bounds = tuple(
            sorted(
                draw(
                    st.sets(
                        st.floats(
                            min_value=1e-9,
                            max_value=1e9,
                            allow_nan=False,
                        ),
                        min_size=1,
                        max_size=5,
                    )
                )
            )
        )
        counts = tuple(
            draw(st.integers(min_value=0, max_value=1000))
            for _ in range(len(bounds) + 1)
        )
        histograms[f"h_{name}"] = HistogramSnapshot(
            bounds=bounds,
            counts=counts,
            total=draw(_finite),
            count=sum(counts),
        )
    return MetricsSnapshot(
        counters=counters, gauges=gauges, histograms=histograms
    )


class TestPrometheusRoundTripProperty:
    @given(snap=_snapshots())
    @settings(max_examples=60, deadline=None)
    def test_format_parse_round_trip(self, snap):
        assert parse_prometheus_text(prometheus_text(snap)) == snap


# ----------------------------------------------------------------------
# PeriodicSampler
# ----------------------------------------------------------------------
class TestPeriodicSampler:
    def _sampler(self, tmp_path, registry, clock):
        return PeriodicSampler(
            str(tmp_path / "metrics.jsonl"),
            interval_s=1.0,
            registry=registry,
            clock=clock,
            wall_clock=lambda: 1700000000.0,
            sample_proc=False,
        )

    def test_records_are_interval_diffs(self, tmp_path):
        registry = MetricsRegistry()
        clock = FakeClock(start=10.0)
        sampler = self._sampler(tmp_path, registry, clock)

        registry.inc("work", 3)
        clock.advance(1.0)
        first = sampler.sample()
        assert first["sample"] == 1
        assert first["elapsed_s"] == pytest.approx(1.0)
        assert first["counters"] == {"work": 3}

        registry.inc("work", 2)
        registry.set_gauge("depth", 4.0)
        clock.advance(1.0)
        second = sampler.sample()
        assert second["counters"] == {"work": 2}  # delta, not total
        assert second["gauges"] == {"depth": 4.0}
        sampler.stop(final=False)

    def test_jsonl_lines_sum_to_cumulative(self, tmp_path):
        registry = MetricsRegistry()
        clock = FakeClock(start=0.0)
        sampler = self._sampler(tmp_path, registry, clock)
        for k in range(4):
            registry.inc("work", k + 1)
            registry.observe("lat", 0.01 * (k + 1))
            clock.advance(1.0)
            sampler.sample()
        sampler.stop(final=False)

        lines = [
            json.loads(line)
            for line in (tmp_path / "metrics.jsonl")
            .read_text()
            .splitlines()
        ]
        assert len(lines) == 4
        total = sum(
            rec.get("counters", {}).get("work", 0) for rec in lines
        )
        assert total == registry.snapshot().counter("work")
        observed = sum(
            rec.get("histograms", {}).get("lat", {}).get("count", 0)
            for rec in lines
        )
        assert observed == 4

    def test_stop_writes_cumulative_prometheus_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        clock = FakeClock(start=0.0, step=0.5)
        sampler = self._sampler(tmp_path, registry, clock)
        registry.inc("work", 3)
        sampler.sample()
        registry.inc("work", 4)
        sampler.stop()  # final sample + .prom
        prom = (tmp_path / "metrics.prom").read_text()
        parsed = parse_prometheus_text(prom)
        assert parsed.counter("work") == 7

    def test_stop_is_idempotent_and_terminal(self, tmp_path):
        registry = MetricsRegistry()
        sampler = self._sampler(tmp_path, registry, FakeClock(step=0.1))
        sampler.sample()
        sampler.stop()
        sampler.stop()
        assert sampler.sample() is None

    def test_context_manager(self, tmp_path):
        registry = MetricsRegistry()
        with self._sampler(tmp_path, registry, FakeClock(step=0.1)) as s:
            registry.inc("n")
            s.sample()
        assert (tmp_path / "metrics.prom").exists()

    def test_thread_mode_smoke(self, tmp_path):
        registry = MetricsRegistry()
        sampler = PeriodicSampler(
            str(tmp_path / "m.jsonl"),
            interval_s=0.01,
            registry=registry,
            sample_proc=False,
        )
        sampler.start()
        registry.inc("n", 5)
        import time as _time

        _time.sleep(0.05)
        sampler.stop()
        lines = (tmp_path / "m.jsonl").read_text().splitlines()
        assert lines  # sampled at least once
        total = sum(
            json.loads(l).get("counters", {}).get("n", 0) for l in lines
        )
        assert total == 5

    def test_rejects_bad_interval(self, tmp_path):
        with pytest.raises(ValueError):
            PeriodicSampler(str(tmp_path / "m.jsonl"), interval_s=0.0)
