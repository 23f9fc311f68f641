"""KernelProfile validation and helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.workloads.kernels import (
    KernelCategory,
    KernelProfile,
    ProfileBatch,
)

NUMERIC_FIELDS = ProfileBatch.field_names()
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def make(**overrides) -> KernelProfile:
    defaults = dict(
        name="k",
        category=KernelCategory.BALANCED,
        description="test",
    )
    defaults.update(overrides)
    return KernelProfile(**defaults)


class TestValidation:
    @pytest.mark.parametrize(
        "field, zero_ok",
        [
            pytest.param(field, field != "issue_efficiency", id=field)
            for field in (
                "parallel_fraction", "cache_hit_rate",
                "latency_sensitivity", "ext_memory_fraction",
                "cu_utilization", "issue_efficiency", "write_fraction",
            )
        ],
    )
    def test_unit_interval_fields(self, field, zero_ok):
        # issue_efficiency is (0, 1]: a kernel issuing nothing has an
        # infinite compute time and a non-finite node power.
        with pytest.raises(ValueError):
            make(**{field: -0.1})
        with pytest.raises(ValueError):
            make(**{field: 1.1})
        make(**{field: 1.0})
        if zero_ok:
            make(**{field: 0.0})
        else:
            for zero in (0.0, -0.0):
                with pytest.raises(ValueError, match=field):
                    make(**{field: zero})

    @pytest.mark.parametrize(
        "field", ["flops", "mlp_per_cu", "footprint_bytes"]
    )
    def test_positive_fields(self, field):
        with pytest.raises(ValueError):
            make(**{field: 0.0})
        with pytest.raises(ValueError):
            make(**{field: -1.0})

    @pytest.mark.parametrize("field", ["bytes_per_flop", "thrash_pressure"])
    def test_nonnegative_fields(self, field):
        with pytest.raises(ValueError):
            make(**{field: -0.01})
        make(**{field: 0.0})

    def test_compression_ratio_at_least_one(self):
        with pytest.raises(ValueError):
            make(compression_ratio=0.9)
        make(compression_ratio=1.0)

    @pytest.mark.parametrize(
        "field",
        ["flops", "bytes_per_flop", "thrash_pressure", "mlp_per_cu",
         "compression_ratio", "footprint_bytes"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            make(**{field: value})

    @given(
        field=st.sampled_from(NUMERIC_FIELDS),
        value=st.sampled_from(NON_FINITE),
    )
    def test_any_non_finite_numeric_field_rejected(self, field, value):
        with pytest.raises(ValueError):
            make(**{field: value})

    @pytest.mark.parametrize(
        "field", ["flops", "bytes_per_flop", "compression_ratio"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_batch_rejects_non_finite_column(self, field, value):
        batch = ProfileBatch.from_profiles([make()])
        columns = {f: getattr(batch, f).copy() for f in NUMERIC_FIELDS}
        columns[field][0, 0] = value
        with pytest.raises(ValueError, match="finite"):
            ProfileBatch(names=batch.names, **columns)
        assert np.isfinite(batch.flops).all()


class TestDerived:
    def test_operational_intensity(self):
        p = make(bytes_per_flop=0.5)
        assert p.operational_intensity == pytest.approx(2.0)

    def test_operational_intensity_zero_bytes(self):
        p = make(bytes_per_flop=0.0)
        assert p.operational_intensity == float("inf")

    def test_category_str(self):
        assert str(KernelCategory.MEMORY_INTENSIVE) == "memory-intensive"


class TestWithOverrides:
    def test_returns_new_validated_instance(self):
        p = make()
        q = p.with_overrides(cache_hit_rate=0.9)
        assert q.cache_hit_rate == 0.9
        assert p.cache_hit_rate != 0.9 or p is not q

    def test_invalid_override_rejected(self):
        with pytest.raises(ValueError):
            make().with_overrides(cache_hit_rate=2.0)

    def test_frozen(self):
        p = make()
        with pytest.raises(Exception):
            p.cache_hit_rate = 0.1  # type: ignore[misc]


class TestScaledProblem:
    def test_scales_flops_and_footprint_only(self):
        p = make(flops=1e12, footprint_bytes=1e9, bytes_per_flop=0.4)
        q = p.scaled_problem(4.0)
        assert q.flops == pytest.approx(4e12)
        assert q.footprint_bytes == pytest.approx(4e9)
        assert q.bytes_per_flop == p.bytes_per_flop

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError):
            make().scaled_problem(0.0)

    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_intensity_invariant_under_scaling(self, factor):
        p = make(bytes_per_flop=0.3)
        assert p.scaled_problem(factor).operational_intensity == pytest.approx(
            p.operational_intensity
        )
