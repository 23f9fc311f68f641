"""DVFS governor and checkpoint/restart models."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import EHPConfig, PAPER_BEST_MEAN
from repro.core.governor import (
    DvfsGovernor,
    GovernorDecision,
    PhaseObservation,
)
from repro.core.node import NodeModel
from repro.ras.checkpoint import CheckpointModel
from repro.workloads.catalog import APPLICATIONS, get_application


def _decide_point_by_point(governor, profile, config):
    """Reference governor scan: one ``NodeModel.evaluate`` per point.

    Returns ``(config, gated, loss, saving)`` of the winning candidate,
    or None when no candidate beats the starting point.
    """
    base = governor.model.evaluate(profile, config)
    base_perf = float(base.performance)
    base_power = float(base.node_power)
    best = None
    best_eff = base_perf / base_power
    for candidate, gated in governor._candidates(config):
        ev = governor.model.evaluate(profile, candidate)
        perf = float(ev.performance)
        loss = 1.0 - perf / base_perf
        if loss > governor.max_perf_loss:
            continue
        power = float(ev.node_power)
        if perf / power > best_eff:
            best_eff = perf / power
            best = (candidate, gated, loss, 1.0 - power / base_power)
    return best


class TestPhaseObservation:
    def test_measure_from_model(self):
        obs = PhaseObservation.measure(
            NodeModel(), get_application("LULESH"), PAPER_BEST_MEAN
        )
        assert obs.ops_per_byte > 0
        assert 0.0 <= obs.bw_utilization <= 1.0

    def test_compute_kernel_high_ops_per_byte(self):
        hot = PhaseObservation.measure(
            NodeModel(), get_application("MaxFlops"), PAPER_BEST_MEAN
        )
        cold = PhaseObservation.measure(
            NodeModel(), get_application("SNAP"), PAPER_BEST_MEAN
        )
        assert hot.ops_per_byte > cold.ops_per_byte

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseObservation(-1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            PhaseObservation(1.0, 1.5, 0.5)


class TestDvfsGovernor:
    @pytest.fixture(scope="class")
    def governor(self):
        return DvfsGovernor(max_perf_loss=0.02)

    def test_compute_kernel_left_alone(self, governor):
        # MaxFlops uses everything; any back-off costs >2% performance.
        d = governor.decide(get_application("MaxFlops"), PAPER_BEST_MEAN)
        assert d.config == PAPER_BEST_MEAN
        assert d.gated_cus == 0

    def test_memory_kernel_backed_off(self, governor):
        # Thrash-prone kernels gain efficiency (and sometimes raw
        # performance) from gating CUs or lowering frequency.
        d = governor.decide(get_application("LULESH"), PAPER_BEST_MEAN)
        changed = d.config != PAPER_BEST_MEAN
        assert changed
        assert d.predicted_perf_loss <= 0.02

    def test_decision_improves_perf_per_watt(self, governor):
        model = NodeModel()
        p = get_application("SNAP")
        d = governor.decide(p, PAPER_BEST_MEAN)
        base = model.evaluate(p, PAPER_BEST_MEAN)
        governed = model.evaluate(p, d.config)
        assert float(governed.perf_per_watt) >= float(base.perf_per_watt)

    def test_governor_never_raises_frequency(self, governor):
        for name in ("LULESH", "CoMD", "SNAP"):
            d = governor.decide(get_application(name), PAPER_BEST_MEAN)
            assert d.config.gpu_freq <= PAPER_BEST_MEAN.gpu_freq

    def test_run_phases_saves_energy(self, governor):
        phases = [
            get_application("LULESH"),
            get_application("SNAP"),
            get_application("MaxFlops"),
        ]
        out = governor.run_phases(phases, PAPER_BEST_MEAN)
        assert out["energy_saving"] > 0.0
        assert out["governed_energy_j"] < out["base_energy_j"]

    def test_perf_loss_budget_respected(self):
        strict = DvfsGovernor(max_perf_loss=0.0)
        d = strict.decide(get_application("CoMD"), PAPER_BEST_MEAN)
        assert d.predicted_perf_loss <= 0.0 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            DvfsGovernor(freq_ladder=[])
        with pytest.raises(ValueError):
            DvfsGovernor(cu_gate_step=0)
        with pytest.raises(ValueError):
            DvfsGovernor(max_perf_loss=1.0)
        with pytest.raises(ValueError):
            DvfsGovernor().run_phases([], PAPER_BEST_MEAN)

    @pytest.mark.parametrize("step", [2.5, 32.0, True, float("nan"), -32])
    def test_cu_gate_step_must_be_positive_integer(self, step):
        with pytest.raises(ValueError, match="cu_gate_step"):
            DvfsGovernor(cu_gate_step=step)

    @pytest.mark.parametrize(
        "bad", [float("inf"), float("nan"), 0.0, -700e6]
    )
    def test_ladder_entries_must_be_finite_positive(self, bad):
        with pytest.raises(ValueError, match="ladder"):
            DvfsGovernor(freq_ladder=[700e6, bad])

    @pytest.mark.parametrize(
        "config",
        [PAPER_BEST_MEAN, EHPConfig(n_cus=32, gpu_freq=700e6)],
        ids=["best-mean", "32cu-700mhz"],
    )
    @pytest.mark.parametrize("name", list(APPLICATIONS))
    def test_decide_matches_point_by_point_scan(self, governor, config, name):
        profile = get_application(name)
        d = governor.decide(profile, config)
        ref = _decide_point_by_point(governor, profile, config)
        if config.n_cus == 32:
            # The only candidate is the starting point itself, which
            # never beats itself: the fallback path runs.
            assert ref is None
        if ref is None:
            assert d == GovernorDecision(config, 0, 0.0, 0.0)
        else:
            assert (d.config, d.gated_cus) == ref[:2]
            assert d.predicted_perf_loss == pytest.approx(
                ref[2], rel=1e-12, abs=1e-15
            )
            assert d.predicted_power_saving == pytest.approx(
                ref[3], rel=1e-12, abs=1e-15
            )


class TestRunPhasesEdgeCases:
    def test_empty_phase_list_rejected(self):
        with pytest.raises(ValueError):
            DvfsGovernor().run_phases([], PAPER_BEST_MEAN)

    def test_single_candidate_config_is_noop(self):
        # A one-entry ladder at the config's own frequency plus a gate
        # step spanning every CU leaves exactly one candidate — the
        # starting point itself — so the governor must sit still.
        governor = DvfsGovernor(
            freq_ladder=[PAPER_BEST_MEAN.gpu_freq],
            cu_gate_step=PAPER_BEST_MEAN.n_cus,
        )
        profile = get_application("LULESH")
        assert governor._candidates(PAPER_BEST_MEAN) == [
            (PAPER_BEST_MEAN, 0)
        ]
        d = governor.decide(profile, PAPER_BEST_MEAN)
        assert d.config == PAPER_BEST_MEAN
        assert d.gated_cus == 0
        assert d.predicted_perf_loss == 0.0
        out = governor.run_phases([profile], PAPER_BEST_MEAN)
        assert out["slowdown"] == pytest.approx(0.0)
        assert out["energy_saving"] == pytest.approx(0.0)

    @settings(max_examples=15, deadline=None)
    @given(
        name=st.sampled_from(("MaxFlops", "CoMD", "LULESH", "SNAP")),
        n_chiplets=st.sampled_from((1, 2, 4, 8)),
        cus_per_chiplet=st.integers(min_value=1, max_value=48),
        freq_mhz=st.integers(min_value=700, max_value=1500),
        ladder_mhz=st.lists(
            st.integers(min_value=500, max_value=2000),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        max_perf_loss=st.floats(min_value=0.0, max_value=0.2),
    )
    def test_governor_only_backs_off(
        self, name, n_chiplets, cus_per_chiplet, freq_mhz, ladder_mhz,
        max_perf_loss,
    ):
        # The DSE sets the cap; whatever the ladder offers (including
        # frequencies above the cap), the governor may only move down
        # in both frequency and CU count.
        config = EHPConfig(
            n_cus=n_chiplets * cus_per_chiplet,
            gpu_freq=freq_mhz * 1e6,
            n_gpu_chiplets=n_chiplets,
        )
        governor = DvfsGovernor(
            freq_ladder=[f * 1e6 for f in ladder_mhz],
            max_perf_loss=max_perf_loss,
        )
        d = governor.decide(get_application(name), config)
        assert d.config.gpu_freq <= config.gpu_freq
        assert d.config.n_cus <= config.n_cus
        assert d.config.n_cus == config.n_cus - d.gated_cus
        assert d.config.n_cus % config.n_gpu_chiplets == 0


class TestCheckpointModel:
    def test_optimal_interval_is_young(self):
        cm = CheckpointModel()
        mttf = 3600.0
        assert cm.optimal_interval(mttf) == pytest.approx(
            math.sqrt(2.0 * cm.checkpoint_cost_s * mttf)
        )

    def test_efficiency_increases_with_mttf(self):
        cm = CheckpointModel()
        effs = [cm.efficiency(m) for m in (600.0, 3600.0, 86400.0)]
        assert effs == sorted(effs)
        assert all(0.0 < e < 1.0 for e in effs)

    def test_optimal_interval_beats_fixed(self):
        cm = CheckpointModel()
        mttf = 7200.0
        best = cm.efficiency(mttf)
        for factor in (0.2, 0.5, 2.0, 5.0):
            tau = cm.optimal_interval(mttf) * factor
            assert cm.efficiency(mttf, tau) <= best + 1e-3

    def test_plan_summary(self):
        cm = CheckpointModel()
        plan = cm.plan(3600.0)
        assert plan.overhead == pytest.approx(1.0 - plan.efficiency)
        assert plan.mttf_s == 3600.0

    def test_cheaper_checkpoints_raise_efficiency(self):
        slow = CheckpointModel(io_bandwidth=10e9)
        fast = CheckpointModel(io_bandwidth=200e9)
        assert fast.efficiency(3600.0) > slow.efficiency(3600.0)

    def test_required_mttf_inverts_efficiency(self):
        cm = CheckpointModel()
        mttf = cm.required_mttf_for_efficiency(0.98)
        assert cm.efficiency(mttf) == pytest.approx(0.98, abs=0.002)

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointModel(io_bandwidth=0.0)
        with pytest.raises(ValueError):
            CheckpointModel().efficiency(0.0)
        with pytest.raises(ValueError):
            CheckpointModel().required_mttf_for_efficiency(1.5)


class TestRasToCheckpointPipeline:
    def test_system_mttf_drives_machine_efficiency(self):
        # End-to-end: protection choice -> system MTTF -> delivered
        # machine efficiency under optimal checkpointing.
        from repro.ras.ecc import Chipkill, SECDED
        from repro.ras.mttf import SystemReliability
        from repro.ras.rmt import RmtCostModel

        cm = CheckpointModel()
        weak = SystemReliability(memory_ecc=SECDED)
        strong = SystemReliability(
            memory_ecc=Chipkill, rmt=RmtCostModel(detection_coverage=0.999)
        )
        eff_weak = cm.efficiency(weak.system_mttf_hours() * 3600.0)
        eff_strong = cm.efficiency(strong.system_mttf_hours() * 3600.0)
        assert eff_strong > eff_weak
        assert eff_strong > 0.9
