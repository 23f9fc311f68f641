"""System-level roll-up: from one ENA node to the exascale machine.

Section V-F scales the node analysis to the full 100,000-node system:
achieved exaflops, machine power in megawatts, and whether the 1 EF /
20 MW target is met. Fig. 14 sweeps CU count for MaxFlops at 1 GHz and
1 TB/s. The power accounted here is the peak-compute scenario the paper
describes — EHP package power, with external memory idle.

:meth:`ExascaleSystem.cu_sweep` runs the Fig. 14 sweep as one
:meth:`~repro.core.node.NodeModel.evaluate_arrays` pass over the CU
axis, bit-identical to the per-point :meth:`ExascaleSystem.estimate`
loop; the fleet layer (:mod:`repro.fleet`) runs every node group and
profile as rows of one such pass, each row scaled to its group's node
count with :meth:`ExascaleSystem.estimate`'s arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import EHPConfig, _cu_tuple, _is_int
from repro.core.node import NodeModel
from repro.util.units import MW
from repro.workloads.kernels import KernelProfile

__all__ = ["ExascaleSystem", "SystemEstimate"]


@dataclass(frozen=True)
class SystemEstimate:
    """Machine-level projection for one workload and design point."""

    exaflops: float
    machine_power_mw: float
    node_teraflops: float
    node_power_w: float

    @property
    def meets_exaflop(self) -> bool:
        """Does the machine reach 1 EF?"""
        return self.exaflops >= 1.0

    @property
    def meets_power_envelope(self) -> bool:
        """Does it stay within the 20 MW envelope?"""
        return self.machine_power_mw <= 20.0

    @property
    def gflops_per_watt(self) -> float:
        """Machine-level energy efficiency (1 EF / 20 MW = 50 GF/W)."""
        return (self.exaflops * 1.0e9) / (self.machine_power_mw * MW) \
            if self.machine_power_mw > 0 else float("inf")


class ExascaleSystem:
    """A machine of *n_nodes* identical ENA nodes."""

    def __init__(self, n_nodes: int = 100_000, model: NodeModel | None = None):
        if not (_is_int(n_nodes) and n_nodes > 0):
            raise ValueError(
                f"n_nodes must be a positive integer, got {n_nodes!r}"
            )
        self.n_nodes = n_nodes
        self.model = model or NodeModel()

    def estimate(
        self,
        profile: KernelProfile,
        config: EHPConfig,
        *,
        ext_fraction: float | None = None,
    ) -> SystemEstimate:
        """Project *profile* on *config* across the whole machine.

        ``ext_fraction`` overrides the share of DRAM traffic served by
        external memory (``None`` keeps the paper's all-in-package
        peak-compute scenario). The fleet sweeps pass
        ``profile.ext_memory_fraction`` so inter-APU link derating has
        something to degrade.
        """
        evaluation = self.model.evaluate(
            profile, config, ext_fraction=ext_fraction
        )
        return self._scale(
            float(evaluation.performance), float(evaluation.ehp_power)
        )

    def _scale(self, node_flops: float, node_power: float) -> SystemEstimate:
        """One node's FLOP/s and EHP watts, scaled to the machine."""
        return SystemEstimate(
            exaflops=node_flops * self.n_nodes / 1.0e18,
            machine_power_mw=node_power * self.n_nodes / MW,
            node_teraflops=node_flops / 1.0e12,
            node_power_w=node_power,
        )

    def cu_sweep(
        self,
        profile: KernelProfile,
        cu_counts,
        config: EHPConfig | None = None,
        *,
        ext_fraction: float | None = None,
    ) -> list[SystemEstimate]:
        """Fig. 14's sweep: vary CU count at fixed frequency/bandwidth.

        One :meth:`~repro.core.node.NodeModel.evaluate_arrays` call over
        the CU axis. Every point runs the same elementwise ufunc sequence
        it runs alone, so the sweep equals the per-point
        :meth:`estimate` loop bit for bit
        (``tests/test_core_exascale_reconfig.py`` pins it).
        ``ext_fraction`` is :meth:`estimate`'s.
        """
        config = config or EHPConfig(
            n_cus=320, gpu_freq=1.0e9, bandwidth=1.0e12
        )
        counts = _cu_tuple(cu_counts)
        for n in counts:
            # What config.with_axes(n_cus=n) rejects, without building it.
            config.check_cu_count(n)
        evaluation = self.model.evaluate_arrays(
            profile,
            counts,
            config.gpu_freq,
            config.bandwidth,
            ext_fraction=ext_fraction,
        )
        return [
            self._scale(float(p), float(w))
            for p, w in zip(evaluation.performance, evaluation.ehp_power)
        ]
