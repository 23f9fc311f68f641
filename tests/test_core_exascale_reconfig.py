"""Exascale roll-up and dynamic reconfiguration."""

import pytest

from repro.core.config import PAPER_BEST_MEAN, DesignSpace, EHPConfig
from repro.core.exascale import ExascaleSystem
from repro.core.node import NodeModel
from repro.core.reconfig import (
    OracleReconfigurator,
    PhaseReconfigurator,
)
from repro.workloads.catalog import APPLICATIONS, get_application
from repro.workloads.kernels import KernelCategory


class TestExascaleSystem:
    def test_paper_fig14_endpoint(self):
        # 320 CUs at 1 GHz / 1 TB/s: ~1.86 EF at ~11.1 MW.
        system = ExascaleSystem()
        est = system.estimate(
            get_application("MaxFlops"),
            EHPConfig(n_cus=320, gpu_freq=1e9, bandwidth=1e12),
        )
        assert est.exaflops == pytest.approx(1.86, rel=0.05)
        assert est.machine_power_mw == pytest.approx(11.1, rel=0.10)

    def test_meets_exaflop_within_envelope(self):
        system = ExascaleSystem()
        est = system.estimate(
            get_application("MaxFlops"),
            EHPConfig(n_cus=320, gpu_freq=1e9, bandwidth=1e12),
        )
        assert est.meets_exaflop
        assert est.meets_power_envelope

    def test_cu_sweep_is_linear(self):
        system = ExascaleSystem()
        ests = system.cu_sweep(
            get_application("MaxFlops"), (192, 256, 320)
        )
        ratio = ests[2].exaflops / ests[0].exaflops
        assert ratio == pytest.approx(320 / 192, rel=0.02)

    def test_power_grows_with_cus(self):
        system = ExascaleSystem()
        ests = system.cu_sweep(get_application("MaxFlops"), (192, 320))
        assert ests[1].machine_power_mw > ests[0].machine_power_mw

    def test_node_count_scales_linearly(self):
        small = ExascaleSystem(n_nodes=50_000)
        big = ExascaleSystem(n_nodes=100_000)
        cfg = EHPConfig(n_cus=320, gpu_freq=1e9, bandwidth=1e12)
        p = get_application("MaxFlops")
        assert big.estimate(p, cfg).exaflops == pytest.approx(
            2 * small.estimate(p, cfg).exaflops
        )

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            ExascaleSystem(n_nodes=0)

    def test_gflops_per_watt_units(self):
        # The exascale target itself: 1 EF in 20 MW is 50 GF/W.
        from repro.core.exascale import SystemEstimate

        est = SystemEstimate(
            exaflops=1.0,
            machine_power_mw=20.0,
            node_teraflops=10.0,
            node_power_w=200.0,
        )
        assert est.gflops_per_watt == pytest.approx(50.0)

    def test_gflops_per_watt_matches_node_ratio(self):
        # Machine-level GF/W must equal the node-level flops/W ratio
        # (scaling by n_nodes cancels) — this is what the old
        # kilowatt-denominator bug broke by a factor of 1000.
        system = ExascaleSystem()
        est = system.estimate(
            get_application("MaxFlops"),
            EHPConfig(n_cus=320, gpu_freq=1e9, bandwidth=1e12),
        )
        node_gf_per_w = (est.node_teraflops * 1e3) / est.node_power_w
        assert est.gflops_per_watt == pytest.approx(node_gf_per_w)

    @pytest.mark.parametrize("ext_fraction", [None, 0.3])
    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_cu_sweep_matches_estimate_bitwise(self, name, ext_fraction):
        # One CU-axis pass, the same bits as the per-point loop.
        system = ExascaleSystem(n_nodes=12_345)
        profile = get_application(name)
        config = EHPConfig(n_cus=256, gpu_freq=1.2e9, bandwidth=3e12)
        cus = (192, 224, 256, 288, 320, 352, 384)
        sweep = system.cu_sweep(
            profile, cus, config, ext_fraction=ext_fraction
        )
        for n, est in zip(cus, sweep, strict=True):
            point = system.estimate(
                profile,
                config.with_axes(n_cus=n),
                ext_fraction=ext_fraction,
            )
            assert est == point

    def test_cu_sweep_grid_validates_counts(self):
        # Every count of the sweep goes through EHPConfig, so the sweep
        # rejects exactly what the per-point loop rejects: counts not
        # divisible by the chiplet count.
        system = ExascaleSystem()
        with pytest.raises(ValueError):
            system.cu_sweep(get_application("MaxFlops"), (192, 321))

    @pytest.mark.parametrize("n_cus", [256.7, 256.0])
    def test_cu_sweep_rejects_non_integer_counts(self, n_cus):
        # Never truncated: 256.7 must not silently become 256.
        with pytest.raises(ValueError, match="integer"):
            ExascaleSystem().cu_sweep(
                get_application("MaxFlops"), (192, n_cus)
            )


class TestOracleReconfigurator:
    def test_decisions_match_dse(self, small_space):
        oracle = OracleReconfigurator(space=small_space)
        decisions = oracle.decide(
            [get_application("CoMD"), get_application("MaxFlops")]
        )
        assert {d.application for d in decisions} == {"CoMD", "MaxFlops"}
        for d in decisions:
            assert d.benefit_pct >= -1e-9


class TestPhaseReconfigurator:
    @pytest.fixture
    def palette(self):
        return {
            KernelCategory.COMPUTE_INTENSIVE: EHPConfig(
                n_cus=384, gpu_freq=925e6, bandwidth=1e12
            ),
            KernelCategory.MEMORY_INTENSIVE: EHPConfig(
                n_cus=256, gpu_freq=1100e6, bandwidth=4e12
            ),
        }

    def test_dynamic_beats_static_on_mixed_phases(self, palette):
        rc = PhaseReconfigurator(palette, fallback=PAPER_BEST_MEAN)
        phases = [
            get_application("MaxFlops"),
            get_application("LULESH"),
            get_application("MaxFlops"),
            get_application("LULESH"),
        ]
        out = rc.run(phases)
        assert out["speedup"] > 1.0
        assert out["switches"] == 3

    def test_switch_overhead_counted(self, palette):
        costly = PhaseReconfigurator(
            palette, fallback=PAPER_BEST_MEAN, switch_overhead=10.0
        )
        free = PhaseReconfigurator(
            palette, fallback=PAPER_BEST_MEAN, switch_overhead=0.0
        )
        phases = [get_application("MaxFlops"), get_application("LULESH")]
        assert costly.run(phases)["dynamic_time"] > free.run(phases)[
            "dynamic_time"
        ]

    def test_unclassified_phase_uses_fallback(self, palette):
        rc = PhaseReconfigurator(palette, fallback=PAPER_BEST_MEAN)
        balanced = get_application("CoMD")  # BALANCED not in palette
        assert rc.config_for(balanced) == PAPER_BEST_MEAN

    def test_empty_phases_rejected(self, palette):
        rc = PhaseReconfigurator(palette, fallback=PAPER_BEST_MEAN)
        with pytest.raises(ValueError):
            rc.run([])

    def test_negative_overhead_rejected(self, palette):
        with pytest.raises(ValueError):
            PhaseReconfigurator(
                palette, fallback=PAPER_BEST_MEAN, switch_overhead=-1.0
            )
