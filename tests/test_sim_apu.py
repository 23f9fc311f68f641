"""Trace-driven APU simulation and cross-checks against the analytic model."""

import pytest

from repro.sim.apu_sim import ApuSimConfig, ApuSimulator
from repro.workloads.catalog import get_application
from repro.workloads.traces import TraceGenerator


def run(app: str, n: int = 8000, **cfg_overrides):
    profile = get_application(app)
    trace = TraceGenerator(profile, seed=42).generate(n)
    config = ApuSimConfig(**cfg_overrides)
    return ApuSimulator(config).run(trace)


class TestApuSimulator:
    def test_compute_kernel_near_peak(self):
        res = run("MaxFlops")
        peak = 16 * 64 * 1e9
        assert res.flops_rate > 0.8 * peak
        assert res.cu_utilization > 0.8

    def test_memory_kernel_far_from_peak(self):
        res = run("SNAP")
        peak = 16 * 64 * 1e9
        assert res.flops_rate < 0.5 * peak

    def test_category_ordering_matches_analytic_model(self):
        # The simulator independently reproduces the Table I taxonomy:
        # compute-intensive > balanced > memory-intensive utilization.
        u_compute = run("MaxFlops").cu_utilization
        u_balanced = run("CoMD").cu_utilization
        u_memory = run("SNAP").cu_utilization
        assert u_compute > u_balanced > u_memory

    def test_more_bandwidth_helps_memory_kernel(self):
        lo = run("SNAP", dram_bandwidth=50e9)
        hi = run("SNAP", dram_bandwidth=400e9)
        assert hi.flops_rate > lo.flops_rate

    def test_bandwidth_irrelevant_for_compute_kernel(self):
        lo = run("MaxFlops", dram_bandwidth=50e9)
        hi = run("MaxFlops", dram_bandwidth=400e9)
        assert hi.flops_rate == pytest.approx(lo.flops_rate, rel=0.1)

    def test_chiplet_extra_latency_small_penalty(self):
        # The Fig. 7 cross-check: tens of ns of extra hop latency on a
        # latency-hiding GPU costs only a few percent.
        base = run("CoMD")
        chiplet = run("CoMD", chiplet_extra_latency=25e-9)
        penalty = 1.0 - chiplet.flops_rate / base.flops_rate
        assert penalty < 0.15

    def test_dram_fraction_bounded(self):
        res = run("LULESH")
        assert 0.0 <= res.dram_fraction <= 1.0

    def test_empty_trace_rejected(self):
        profile = get_application("CoMD")
        trace = TraceGenerator(profile, seed=0).generate(1)
        sim = ApuSimulator()
        import numpy as np
        from repro.workloads.traces import MemoryTrace
        empty = MemoryTrace(
            addresses=np.array([], dtype=np.int64),
            is_write=np.array([], dtype=bool),
            flops_between=np.array([]),
            footprint_bytes=1024.0,
        )
        with pytest.raises(ValueError):
            sim.run(empty)

    def test_deterministic(self):
        a = run("CoMD", n=3000)
        b = run("CoMD", n=3000)
        assert a.elapsed == b.elapsed
        assert a.total_accesses == b.total_accesses

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ApuSimConfig(n_cus=0)
        with pytest.raises(ValueError):
            ApuSimConfig(chiplet_extra_latency=-1.0)

    @pytest.mark.parametrize(
        "field", ["n_cus", "wavefronts_per_cu", "line_bytes"]
    )
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 2.5, 16.0, True]
    )
    def test_counts_must_be_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            ApuSimConfig(**{field: value})

    @pytest.mark.parametrize(
        "field",
        [
            "freq_hz", "flops_per_cu_cycle", "dram_bandwidth",
            "dram_latency", "llc_latency", "l1_latency",
        ],
    )
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 0.0, -1.0]
    )
    def test_rates_and_latencies_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            ApuSimConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_chiplet_extra_latency_finite(self, value):
        with pytest.raises(ValueError, match="chiplet_extra_latency"):
            ApuSimConfig(chiplet_extra_latency=value)
