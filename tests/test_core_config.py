"""EHPConfig and DesignSpace."""

import math

import pytest

from repro.core.config import (
    PAPER_BEST_MEAN,
    PAPER_BEST_MEAN_OPTIMIZED,
    DesignSpace,
    EHPConfig,
)
from repro.util.units import GHZ, MHZ, TB


class TestEHPConfig:
    def test_defaults_match_paper_structure(self):
        c = EHPConfig()
        assert c.n_gpu_chiplets == 8
        assert c.n_cpu_cores == 32
        assert c.dram3d_capacity == pytest.approx(256e9)

    def test_area_budget_enforced(self):
        with pytest.raises(ValueError, match="area budget"):
            EHPConfig(n_cus=416)
        EHPConfig(n_cus=384)  # the Section VI cap itself is fine

    def test_chiplet_divisibility(self):
        with pytest.raises(ValueError, match="chiplets"):
            EHPConfig(n_cus=300)
        assert EHPConfig(n_cus=320).cus_per_chiplet == 40

    def test_peak_flops(self):
        c = EHPConfig(n_cus=320, gpu_freq=1 * GHZ)
        assert c.peak_dp_flops == pytest.approx(20.48e12)

    def test_ops_per_byte(self):
        c = PAPER_BEST_MEAN
        assert c.ops_per_byte == pytest.approx(320 / 3000, rel=1e-6)

    def test_label(self):
        assert PAPER_BEST_MEAN.label() == "320 / 1000 / 3"
        assert PAPER_BEST_MEAN_OPTIMIZED.label() == "288 / 1100 / 3"

    def test_with_axes(self):
        c = PAPER_BEST_MEAN.with_axes(n_cus=256)
        assert c.n_cus == 256
        assert c.gpu_freq == PAPER_BEST_MEAN.gpu_freq

    def test_with_axes_validates(self):
        with pytest.raises(ValueError):
            PAPER_BEST_MEAN.with_axes(n_cus=999)

    def test_float_n_cus_rejected(self):
        # 256.0 divides evenly but is not an integer CU count.
        with pytest.raises(ValueError, match="integer"):
            EHPConfig(n_cus=256.0)

    @pytest.mark.parametrize("axis", ["gpu_freq", "bandwidth"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_zero_axis_rejected(self, axis, value):
        with pytest.raises(ValueError, match="finite and positive"):
            EHPConfig(**{axis: value})


class TestDesignSpace:
    def test_default_grid_exceeds_thousand(self):
        # The paper's "over a thousand different hardware configurations".
        space = DesignSpace()
        assert space.size > 1000

    def test_default_grid_includes_all_table2_configs(self):
        space = DesignSpace()
        table2 = [
            (256, 1100, 4), (256, 1200, 4), (224, 1400, 5), (384, 700, 5),
            (192, 1500, 6), (224, 1300, 6), (352, 900, 7), (384, 925, 1),
            (320, 1000, 3),
        ]
        for n, f, b in table2:
            assert n in space.cu_counts
            assert f * MHZ in space.frequencies
            assert b * TB in space.bandwidths

    def test_grid_arrays_cover_size(self):
        space = DesignSpace()
        cus, freqs, bws = space.grid_arrays()
        assert len(cus) == len(freqs) == len(bws) == space.size

    def test_config_at_roundtrip(self):
        space = DesignSpace()
        for index in (0, 1, 100, space.size - 1):
            cfg = space.config_at(index)
            # Recompute the flat index from axis positions.
            i_cu = list(space.cu_counts).index(cfg.n_cus)
            i_f = list(space.frequencies).index(cfg.gpu_freq)
            i_b = list(space.bandwidths).index(cfg.bandwidth)
            flat = (
                i_cu * len(space.frequencies) + i_f
            ) * len(space.bandwidths) + i_b
            assert flat == index

    def test_config_at_bounds(self):
        space = DesignSpace()
        with pytest.raises(IndexError):
            space.config_at(space.size)
        with pytest.raises(IndexError):
            space.config_at(-1)

    def test_grid_arrays_match_config_at(self):
        space = DesignSpace(
            cu_counts=(192, 320), frequencies=(1e9,), bandwidths=(1e12, 3e12)
        )
        cus, freqs, bws = space.grid_arrays()
        for i in range(space.size):
            cfg = space.config_at(i)
            assert cfg.n_cus == int(cus[i])
            assert cfg.gpu_freq == freqs[i]
            assert cfg.bandwidth == bws[i]

    def test_iter_configs(self):
        space = DesignSpace(
            cu_counts=(192,), frequencies=(1e9, 1.1e9), bandwidths=(1e12,)
        )
        configs = list(space.iter_configs())
        assert len(configs) == 2
        assert configs[0].gpu_freq == 1e9

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace(cu_counts=())

    def test_area_budget_checked(self):
        with pytest.raises(ValueError):
            DesignSpace(cu_counts=(448,))

    @pytest.mark.parametrize(
        "n_cus", [math.nan, 256.5, 256.0, 100, 0, -8, True]
    )
    def test_cu_counts_follow_ehpconfig_rules(self, n_cus):
        # NaN would evaluate NaN performance, 256.5 a fractional CU
        # count, and 100 an optimum EHPConfig cannot build (8 chiplets).
        with pytest.raises(ValueError, match="n_cus"):
            DesignSpace(cu_counts=(256, n_cus))

    @pytest.mark.parametrize("axis", ["frequencies", "bandwidths"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_zero_axis_rejected(self, axis, value):
        good = getattr(DesignSpace(), axis)
        with pytest.raises(ValueError, match="finite and positive"):
            DesignSpace(**{axis: (*good[:2], value)})

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_power_budget_rejected(self, value):
        with pytest.raises(ValueError, match="finite and positive"):
            DesignSpace(power_budget=value)
