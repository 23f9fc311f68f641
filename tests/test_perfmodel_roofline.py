"""The extended roofline model: shapes, bounds, vectorization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.perfmodel.machine import MachineParams
from repro.noc.traffic import chiplet_traffic_summary
from repro.perfmodel.roofline import (
    evaluate_kernel,
    evaluate_kernel_grid,
    kernel_time,
    smooth_max_array,
)
from repro.workloads.catalog import get_application
from repro.workloads.kernels import KernelCategory, KernelProfile, ProfileBatch


def profile(**overrides) -> KernelProfile:
    defaults = dict(
        name="p",
        category=KernelCategory.BALANCED,
        description="t",
        flops=1.0e12,
        bytes_per_flop=0.5,
        parallel_fraction=0.9,
        cache_hit_rate=0.5,
        thrash_pressure=0.0,
        latency_sensitivity=0.2,
        mlp_per_cu=32.0,
    )
    defaults.update(overrides)
    return KernelProfile(**defaults)


class TestSmoothMaxArray:
    def test_elementwise(self):
        a = np.array([1.0, 5.0])
        b = np.array([4.0, 2.0])
        out = smooth_max_array(a, b, 8.0)
        assert out[0] >= 4.0 and out[1] >= 5.0

    def test_invalid_sharpness(self):
        with pytest.raises(ValueError):
            smooth_max_array(np.ones(2), np.ones(2), -1.0)

    def test_zero_elements(self):
        out = smooth_max_array(np.zeros(3), np.zeros(3), 6.0)
        np.testing.assert_array_equal(out, np.zeros(3))


class TestInputValidation:
    def test_nonpositive_hardware_rejected(self):
        p = profile()
        for bad in ((0, 1e9, 1e12), (320, 0, 1e12), (320, 1e9, 0)):
            with pytest.raises(ValueError):
                evaluate_kernel(p, *bad)

    def test_ext_fraction_bounds(self):
        p = profile()
        with pytest.raises(ValueError):
            evaluate_kernel(p, 320, 1e9, 3e12, ext_fraction=1.5)
        with pytest.raises(ValueError):
            evaluate_kernel(p, 320, 1e9, 3e12, ext_fraction=-0.1)

    # Each of these returned NaN or a finite time instead of raising.
    @pytest.mark.parametrize("axes", [
        (np.nan, 1e9, 3e12), (320, np.nan, 3e12), (320, 1e9, np.nan),
        (np.inf, 1e9, 3e12), (320, np.inf, 3e12), (320, 1e9, np.inf),
        (np.array([320.0, np.nan]), 1e9, 3e12),
    ])
    def test_non_finite_hardware_rejected(self, axes):
        with pytest.raises(ValueError, match="finite and positive"):
            evaluate_kernel(get_application("CoMD"), *axes)

    @pytest.mark.parametrize("frac", [np.nan, [0.5, np.nan], np.inf])
    def test_non_finite_ext_fraction_rejected(self, frac):
        with pytest.raises(ValueError, match="ext_fraction"):
            evaluate_kernel(profile(), 320, 1e9, 3e12, ext_fraction=frac)

    @pytest.mark.parametrize("lat", [np.nan, np.inf, -1.0, -1e-12])
    def test_bad_extra_latency_rejected(self, lat):
        with pytest.raises(ValueError, match="extra_latency"):
            evaluate_kernel(profile(), 320, 1e9, 3e12, extra_latency=lat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("axis", range(3))
    def test_grid_rejects_bad_axis_entries(self, axis, bad):
        axes = [[256.0, 320.0], [1e9], [3e12]]
        axes[axis] = axes[axis] + [bad]
        batch = ProfileBatch.from_profiles([profile()])
        with pytest.raises(ValueError, match="finite and positive"):
            evaluate_kernel_grid(batch, *axes)

    def test_chiplet_summary_rejects_nan_cus(self):
        # Reported perf_vs_monolithic=nan before the axes were checked.
        with pytest.raises(ValueError):
            chiplet_traffic_summary(
                get_application("CoMD"), n_cus=np.nan, freq=1e9,
                bandwidth=3e12,
            )


class TestComputeBound:
    def test_compute_kernel_scales_linearly_with_freq(self):
        p = profile(bytes_per_flop=0.001, parallel_fraction=1.0)
        t1 = float(kernel_time(p, 320, 1.0e9, 3e12))
        t2 = float(kernel_time(p, 320, 2.0e9, 3e12))
        assert t1 / t2 == pytest.approx(2.0, rel=0.02)

    def test_compute_kernel_insensitive_to_bandwidth(self):
        p = profile(bytes_per_flop=0.001, parallel_fraction=1.0)
        t_lo = float(kernel_time(p, 320, 1.0e9, 1e12))
        t_hi = float(kernel_time(p, 320, 1.0e9, 7e12))
        assert t_lo / t_hi == pytest.approx(1.0, abs=0.02)

    def test_sublinear_cu_scaling(self):
        p = profile(bytes_per_flop=0.001, parallel_fraction=0.5)
        r1 = float(evaluate_kernel(p, 256, 1e9, 7e12).flops_rate)
        r2 = float(evaluate_kernel(p, 384, 1e9, 7e12).flops_rate)
        assert r2 / r1 == pytest.approx((384 / 256) ** 0.5, rel=0.02)

    def test_issue_efficiency_caps_peak(self):
        p = profile(bytes_per_flop=0.0, issue_efficiency=0.907,
                    parallel_fraction=1.0)
        rate = float(evaluate_kernel(p, 320, 1e9, 3e12).flops_rate)
        peak = 320 * 64 * 1e9
        assert rate <= peak
        assert rate == pytest.approx(0.907 * peak, rel=0.02)


class TestMemoryBound:
    def test_bandwidth_bound_kernel_scales_with_bw(self):
        p = profile(bytes_per_flop=2.0, cache_hit_rate=0.0,
                    latency_sensitivity=0.01)
        r1 = float(evaluate_kernel(p, 320, 1e9, 1e12).flops_rate)
        r3 = float(evaluate_kernel(p, 320, 1e9, 3e12).flops_rate)
        assert r3 / r1 == pytest.approx(3.0, rel=0.1)

    def test_thrashing_reduces_hit_rate_with_cus(self):
        p = profile(thrash_pressure=0.5)
        h_small = float(evaluate_kernel(p, 192, 1e9, 3e12).hit_rate)
        h_large = float(evaluate_kernel(p, 384, 1e9, 3e12).hit_rate)
        assert h_large < h_small

    def test_thrashing_is_frequency_invariant(self):
        p = profile(thrash_pressure=0.5)
        h1 = float(evaluate_kernel(p, 320, 0.7e9, 3e12).hit_rate)
        h2 = float(evaluate_kernel(p, 320, 1.5e9, 3e12).hit_rate)
        assert h1 == pytest.approx(h2)

    def test_memory_intensive_rise_then_fall_in_cus(self):
        # Fig. 6(b): past the knee, more CUs lose performance.
        p = profile(bytes_per_flop=0.5, cache_hit_rate=0.8,
                    thrash_pressure=1.2, latency_sensitivity=0.05,
                    mlp_per_cu=64.0)
        cus = np.array([64.0, 128.0, 256.0, 384.0])
        rates = np.asarray(
            evaluate_kernel(p, cus, 1e9, 3e12).flops_rate
        )
        peak_at = int(np.argmax(rates))
        assert 0 < peak_at < len(cus) - 1

    def test_latency_bound_kernel_benefits_from_mlp(self):
        p = profile(latency_sensitivity=0.9, mlp_per_cu=4.0,
                    bytes_per_flop=1.0, cache_hit_rate=0.0)
        q = p.with_overrides(mlp_per_cu=64.0)
        t_low = float(kernel_time(p, 320, 1e9, 7e12))
        t_high = float(kernel_time(q, 320, 1e9, 7e12))
        assert t_low > t_high

    def test_external_fraction_slows_execution(self):
        p = profile(bytes_per_flop=1.0, cache_hit_rate=0.2)
        t0 = float(kernel_time(p, 320, 1e9, 3e12, ext_fraction=0.0))
        t5 = float(kernel_time(p, 320, 1e9, 3e12, ext_fraction=0.5))
        t9 = float(kernel_time(p, 320, 1e9, 3e12, ext_fraction=0.9))
        assert t0 < t5 < t9

    def test_extra_latency_hurts_latency_sensitive_kernels_more(self):
        sensitive = profile(latency_sensitivity=0.8, mlp_per_cu=8.0,
                            bytes_per_flop=1.0, cache_hit_rate=0.2)
        tolerant = sensitive.with_overrides(
            latency_sensitivity=0.05, mlp_per_cu=64.0
        )
        def penalty(p):
            base = float(kernel_time(p, 320, 1e9, 3e12))
            extra = float(
                kernel_time(p, 320, 1e9, 3e12, extra_latency=100e-9)
            )
            return extra / base
        assert penalty(sensitive) > penalty(tolerant)


class TestMetricsConsistency:
    def test_traffic_accounting(self):
        p = profile()
        m = evaluate_kernel(p, 320, 1e9, 3e12, ext_fraction=0.3)
        total_miss = float(m.dram_traffic + m.ext_traffic)
        expected = p.flops * p.bytes_per_flop * (1 - float(m.hit_rate))
        assert total_miss == pytest.approx(expected, rel=1e-9)

    def test_rates_are_traffic_over_time(self):
        p = profile()
        m = evaluate_kernel(p, 320, 1e9, 3e12)
        assert float(m.dram_rate) == pytest.approx(
            float(m.dram_traffic / m.time)
        )

    def test_busy_fraction_bounds(self):
        p = profile()
        m = evaluate_kernel(p, 320, 1e9, 3e12)
        assert 0.0 <= float(m.cu_busy_fraction) <= 1.0
        assert 0.0 <= float(m.bw_utilization) <= 1.0

    def test_vectorized_matches_scalar(self):
        p = profile()
        cus = np.array([192.0, 256.0, 320.0])
        vec = evaluate_kernel(p, cus, 1e9, 3e12).time
        for i, n in enumerate(cus):
            scalar = float(kernel_time(p, float(n), 1e9, 3e12))
            assert float(vec[i]) == pytest.approx(scalar, rel=1e-12)

    def test_broadcast_shapes(self):
        p = profile()
        m = evaluate_kernel(
            p, np.array([256.0, 320.0]), 1e9, 3e12
        )
        assert m.time.shape == (2,)
        assert m.dram_traffic.shape == (2,)


class TestMonotonicityProperties:
    @given(
        st.floats(min_value=0.8e9, max_value=1.5e9),
        st.floats(min_value=1e12, max_value=7e12),
    )
    @settings(max_examples=30, deadline=None)
    def test_time_positive(self, freq, bw):
        p = profile()
        assert float(kernel_time(p, 320, freq, bw)) > 0

    @given(st.floats(min_value=1e12, max_value=6e12))
    @settings(max_examples=30, deadline=None)
    def test_more_bandwidth_never_slower(self, bw):
        p = profile(bytes_per_flop=1.0)
        t1 = float(kernel_time(p, 320, 1e9, bw))
        t2 = float(kernel_time(p, 320, 1e9, bw * 1.15))
        assert t2 <= t1 * (1 + 1e-9)

    @given(st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=30, deadline=None)
    def test_more_ext_fraction_never_faster(self, frac):
        p = profile(bytes_per_flop=1.0)
        t1 = float(kernel_time(p, 320, 1e9, 3e12, ext_fraction=frac))
        t2 = float(kernel_time(p, 320, 1e9, 3e12, ext_fraction=frac + 0.05))
        assert t2 >= t1 * (1 - 1e-9)
