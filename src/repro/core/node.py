"""The ENA node model: one-call performance + power evaluation.

:class:`NodeModel` is the reproduction of the paper's high-level simulator
as a user-facing object: construct it with technology parameters (or use
the defaults), then evaluate any kernel profile on any design point. The
design-space exploration, the experiment drivers and the examples all go
through this class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import DesignSpace, EHPConfig
from repro.perfmodel.machine import LinkDerate, MachineParams
from repro.perfmodel.roofline import (
    KernelMetrics,
    evaluate_kernel,
    evaluate_kernel_grid,
)
from repro.power.breakdown import (
    ExternalMemoryConfig,
    PowerBreakdown,
    node_power,
    node_power_grid,
)
from repro.power.components import PowerParams
from repro.workloads.kernels import KernelProfile, ProfileBatch

__all__ = ["GridEvaluation", "NodeEvaluation", "NodeModel"]


@dataclass(frozen=True)
class NodeEvaluation:
    """Joint performance/power result of one (or many) design points."""

    metrics: KernelMetrics
    power: PowerBreakdown

    @property
    def performance(self) -> np.ndarray:
        """Achieved throughput, FLOP/s."""
        return self.metrics.flops_rate

    @property
    def ehp_power(self) -> np.ndarray:
        """EHP package power, watts (the DSE budget's subject)."""
        return self.power.ehp_package

    @property
    def node_power(self) -> np.ndarray:
        """Total ENA node power, watts."""
        return self.power.total

    @property
    def perf_per_watt(self) -> np.ndarray:
        """Energy efficiency, FLOP/s per watt of node power."""
        return self.performance / self.node_power

    @property
    def energy(self) -> np.ndarray:
        """Total node energy over the kernel, joules."""
        return self.node_power * self.metrics.time


@dataclass(frozen=True)
class GridEvaluation:
    """One fused (profile x CU x freq x BW) evaluation, flattened.

    Row ``i`` of each ``(P, G)`` tensor is profile ``names[i]`` swept
    over every grid point of ``space`` in the same C-order flat layout
    :meth:`~repro.core.config.DesignSpace.grid_arrays` produces (CUs
    outermost), so a row is directly comparable to a per-profile
    :meth:`NodeModel.evaluate_arrays` sweep: values agree to ~1e-13
    relative and the DSE's argmax/feasibility selections are identical.
    """

    names: tuple[str, ...]
    space: DesignSpace
    performance: np.ndarray
    """Achieved FLOP/s, shape ``(P, G)``."""

    power: np.ndarray
    """Total node power in watts, shape ``(P, G)``."""

    feasible: np.ndarray
    """``power <= space.power_budget`` mask, shape ``(P, G)``."""

    def row(self, name: str) -> int:
        """Row index of one profile name."""
        return self.names.index(name)


class NodeModel:
    """Analytic model of one ENA node.

    Parameters
    ----------
    machine:
        Microarchitecture/technology constants for the performance model.
    power_params:
        Component power constants (possibly with optimizations applied
        via :func:`repro.core.optimizations.apply_optimizations`).
    ext_config:
        External memory composition; defaults to the paper's 1 TB
        DRAM-only baseline.
    """

    def __init__(
        self,
        machine: MachineParams | None = None,
        power_params: PowerParams | None = None,
        ext_config: ExternalMemoryConfig | None = None,
    ):
        self.machine = machine or MachineParams()
        self.power_params = power_params or PowerParams()
        self.ext_config = ext_config or ExternalMemoryConfig.dram_only()

    def with_machine(self, machine: MachineParams) -> "NodeModel":
        """A copy of this model with different machine constants (e.g.
        external bandwidth/latency derated by an inter-APU link tier)."""
        return NodeModel(machine, self.power_params, self.ext_config)

    def with_power_params(self, power_params: PowerParams) -> "NodeModel":
        """A copy of this model with different power parameters."""
        return NodeModel(self.machine, power_params, self.ext_config)

    def with_ext_config(self, ext_config: ExternalMemoryConfig) -> "NodeModel":
        """A copy of this model with a different external memory network."""
        return NodeModel(self.machine, self.power_params, ext_config)

    # ------------------------------------------------------------------
    def evaluate(
        self,
        profile: KernelProfile,
        config: EHPConfig,
        *,
        ext_fraction: float | None = None,
        extra_latency: float = 0.0,
    ) -> NodeEvaluation:
        """Evaluate *profile* on a single design point.

        ``ext_fraction`` overrides the share of DRAM traffic served by
        external memory; ``None`` uses the all-in-package scenario (the
        paper's DSE and Figs. 4-6 convention). Pass
        ``profile.ext_memory_fraction`` for the power studies.
        """
        return self.evaluate_arrays(
            profile,
            config.n_cus,
            config.gpu_freq,
            config.bandwidth,
            ext_fraction=ext_fraction,
            extra_latency=extra_latency,
        )

    def evaluate_arrays(
        self,
        profile: KernelProfile,
        n_cus,
        freq,
        bandwidth,
        *,
        ext_fraction=None,
        extra_latency: float = 0.0,
        ext_link: LinkDerate | None = None,
    ) -> NodeEvaluation:
        """Vectorized evaluation over arrays of design-point axes.

        *profile* may also be a :class:`ProfileBatch`: its ``(P, 1)``
        columns broadcast against the axes, so ``ext_fraction`` can be
        one share per profile (``batch.ext_memory_fraction``), and so
        can *ext_link*'s external bandwidth and latency (``None`` keeps
        the machine's).
        """
        metrics = evaluate_kernel(
            profile,
            n_cus,
            freq,
            bandwidth,
            ext_fraction=ext_fraction,
            machine=self.machine,
            extra_latency=extra_latency,
            ext_link=ext_link,
        )
        power = node_power(
            profile,
            metrics,
            n_cus,
            freq,
            bandwidth,
            params=self.power_params,
            ext_config=self.ext_config,
        )
        return NodeEvaluation(metrics=metrics, power=power)

    def evaluate_grid(
        self,
        profiles,
        space: DesignSpace | None = None,
    ) -> GridEvaluation:
        """Fused tensor evaluation of *profiles* over a whole grid.

        One broadcast pass over the ``(P, C, F, B)`` tensor — no Python
        loop over profiles or grid chunks — at the DSE operating point
        (all traffic in-package). Results match looping
        :meth:`evaluate_arrays` over ``space.grid_arrays()`` per
        profile to a few ULPs (rtol ~1e-13), close enough that every
        DSE argmax and feasibility decision is bit-identical;
        ``benchmarks/check_perf.py check_tensor_eval`` gates both that
        identity and the speedup.

        *profiles* may be a :class:`ProfileBatch` or a sequence of
        :class:`KernelProfile`.
        """
        space = space or DesignSpace()
        if isinstance(profiles, ProfileBatch):
            batch = profiles
        else:
            batch = ProfileBatch.from_profiles(profiles)
        cu_axis = np.asarray(space.cu_counts, dtype=float)
        f_axis = np.asarray(space.frequencies, dtype=float)
        b_axis = np.asarray(space.bandwidths, dtype=float)
        kernel = evaluate_kernel_grid(
            batch, cu_axis, f_axis, b_axis, machine=self.machine
        )
        perf = kernel.perf.reshape(len(batch), -1)
        total = node_power_grid(
            batch,
            kernel,
            cu_axis,
            f_axis,
            b_axis,
            params=self.power_params,
            ext_config=self.ext_config,
        )
        power = total.reshape(len(batch), -1)
        return GridEvaluation(
            names=batch.names,
            space=space,
            performance=perf,
            power=power,
            feasible=power <= space.power_budget,
        )

    def performance(self, profile: KernelProfile, config: EHPConfig) -> float:
        """Convenience: achieved FLOP/s on one design point."""
        return float(self.evaluate(profile, config).performance)
