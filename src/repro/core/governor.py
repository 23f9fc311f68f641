"""Runtime power governor: DVFS + power gating (Section VI).

The paper's dynamic-reconfiguration discussion calls for a runtime that
(1) detects when a kernel phase stops benefiting from compute capability
and (2) backs off via DVFS and power gating to an energy-optimal point.
This module provides that runtime against the analytic node model:

* :class:`PhaseObservation` — what hardware counters would report for a
  running phase (ops/byte, bandwidth utilization, CU busy fraction).
* :class:`DvfsGovernor` — a hill-climbing governor over the frequency
  ladder with a power-gating decision for idle CU groups, targeting
  maximum performance-per-watt subject to a performance-loss bound.

The governor is deliberately model-agnostic at its interface: it sees
observations and proposes settings, so it could drive the event-driven
simulator equally well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import EHPConfig, _finite_positive, _is_int
from repro.core.node import NodeModel
from repro.workloads.kernels import KernelProfile

__all__ = ["PhaseObservation", "GovernorDecision", "DvfsGovernor"]


@dataclass(frozen=True)
class PhaseObservation:
    """Counter-level view of a running phase."""

    ops_per_byte: float
    bw_utilization: float
    cu_busy_fraction: float

    def __post_init__(self) -> None:
        if self.ops_per_byte < 0:
            raise ValueError("ops_per_byte must be non-negative")
        for name in ("bw_utilization", "cu_busy_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @classmethod
    def measure(
        cls, model: NodeModel, profile: KernelProfile, config: EHPConfig
    ) -> "PhaseObservation":
        """What the counters would report for *profile* on *config*."""
        ev = model.evaluate(profile, config)
        m = ev.metrics
        dram_rate = float(m.dram_rate)
        flops_rate = float(m.flops_rate)
        return cls(
            ops_per_byte=flops_rate / dram_rate if dram_rate > 0 else float("inf"),
            bw_utilization=float(m.bw_utilization),
            cu_busy_fraction=float(m.cu_busy_fraction),
        )


@dataclass(frozen=True)
class GovernorDecision:
    """One governor step's outcome."""

    config: EHPConfig
    gated_cus: int
    predicted_perf_loss: float
    predicted_power_saving: float


class DvfsGovernor:
    """Greedy energy-efficiency governor over frequency and CU gating.

    Parameters
    ----------
    model:
        The node model used to predict settings' effects (the runtime
        analogue of the paper's predictive power-management research,
        references [23]-[24]).
    freq_ladder:
        Available DVFS states, Hz; each finite and positive.
    cu_gate_step:
        CU-group granularity for power gating, a positive integer (one
        chiplet's worth by default: gating is per power domain, not per
        CU).
    max_perf_loss:
        Largest tolerated fractional performance loss vs. the starting
        configuration ("negligible performance impact" budget).
    """

    def __init__(
        self,
        model: NodeModel | None = None,
        freq_ladder: Sequence[float] | None = None,
        cu_gate_step: int = 32,
        max_perf_loss: float = 0.02,
    ):
        self.model = model or NodeModel()
        if freq_ladder is None:
            freq_ladder = [f * 1e6 for f in range(700, 1501, 100)]
        self.freq_ladder = tuple(sorted(freq_ladder))
        if not self.freq_ladder:
            raise ValueError("frequency ladder must not be empty")
        if not all(_finite_positive(f) for f in self.freq_ladder):
            raise ValueError(
                "frequency ladder entries must be finite and positive, "
                f"got {self.freq_ladder}"
            )
        if not _is_int(cu_gate_step) or cu_gate_step <= 0:
            raise ValueError(
                f"cu_gate_step must be a positive integer, got {cu_gate_step!r}"
            )
        if not 0.0 <= max_perf_loss < 1.0:
            raise ValueError("max_perf_loss must be in [0, 1)")
        self.cu_gate_step = cu_gate_step
        self.max_perf_loss = max_perf_loss

    def _candidates(self, config: EHPConfig) -> list[tuple[EHPConfig, int]]:
        out: list[tuple[EHPConfig, int]] = []
        for freq in self.freq_ladder:
            if freq > config.gpu_freq:
                continue  # the governor only backs off; DSE sets the cap
            for gated in range(0, config.n_cus - self.cu_gate_step + 1,
                               self.cu_gate_step):
                n = config.n_cus - gated
                if n <= 0 or n % config.n_gpu_chiplets:
                    continue
                out.append((config.with_axes(n_cus=n, gpu_freq=freq), gated))
        return out

    def decide(
        self, profile: KernelProfile, config: EHPConfig
    ) -> GovernorDecision:
        """Pick the most efficient back-off within the performance budget.

        The starting point and every candidate are evaluated in one
        :meth:`NodeModel.evaluate_arrays` call, then scanned in
        candidate order; a candidate must beat the best efficiency so
        far strictly, so one equal to the starting point never wins.
        """
        candidates = self._candidates(config)
        points = [config] + [c for c, _ in candidates]
        ev = self.model.evaluate_arrays(
            profile,
            np.array([c.n_cus for c in points]),
            np.array([c.gpu_freq for c in points]),
            np.array([c.bandwidth for c in points]),
        )
        perfs = ev.performance.tolist()
        powers = ev.node_power.tolist()
        base_perf = perfs[0]
        base_power = powers[0]

        best: GovernorDecision | None = None
        best_eff = base_perf / base_power
        for (candidate, gated), perf, power in zip(
            candidates, perfs[1:], powers[1:]
        ):
            loss = 1.0 - perf / base_perf
            if loss > self.max_perf_loss:
                continue
            eff = perf / power
            if eff > best_eff:
                best_eff = eff
                best = GovernorDecision(
                    config=candidate,
                    gated_cus=gated,
                    predicted_perf_loss=loss,
                    predicted_power_saving=1.0 - power / base_power,
                )
        if best is None:
            return GovernorDecision(
                config=config,
                gated_cus=0,
                predicted_perf_loss=0.0,
                predicted_power_saving=0.0,
            )
        return best

    def run_phases(
        self,
        phases: Sequence[KernelProfile],
        config: EHPConfig,
    ) -> dict[str, float]:
        """Govern a phase sequence; returns energy/time vs. ungoverned.

        The governor re-decides per phase (an oracle phase detector; a
        real runtime would converge within a phase via hill climbing).
        """
        if not phases:
            raise ValueError("phase sequence must not be empty")
        base_energy = 0.0
        base_time = 0.0
        gov_energy = 0.0
        gov_time = 0.0
        for phase in phases:
            base = self.model.evaluate(phase, config)
            base_energy += float(base.energy)
            base_time += float(base.metrics.time)
            decision = self.decide(phase, config)
            ev = self.model.evaluate(phase, decision.config)
            gov_energy += float(ev.energy)
            gov_time += float(ev.metrics.time)
        return {
            "energy_saving": 1.0 - gov_energy / base_energy,
            "slowdown": gov_time / base_time - 1.0,
            "base_energy_j": base_energy,
            "governed_energy_j": gov_energy,
        }
