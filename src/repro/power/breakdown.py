"""Node power roll-up: from kernel metrics to the Fig. 9 breakdown.

:func:`node_power` combines the primitive component equations of
:class:`~repro.power.components.PowerParams` with the traffic and activity
rates of a :class:`~repro.perfmodel.roofline.KernelMetrics` evaluation into
a :class:`PowerBreakdown` — the same categories the paper's Fig. 9 stacks:
SerDes static/dynamic, external memory static/dynamic, CU dynamic, and
"Other" (everything else on the EHP package).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.perfmodel.roofline import GridKernel, KernelMetrics
from repro.power.components import PowerParams
from repro.workloads.kernels import KernelProfile, ProfileBatch

__all__ = [
    "ExternalMemoryConfig",
    "PowerBreakdown",
    "node_power",
    "node_power_grid",
    "external_memory_power",
]


@dataclass(frozen=True)
class ExternalMemoryConfig:
    """Composition of the external memory network (Section II-B2).

    The paper's baseline provisions 1 TB of external DRAM in 64 GB
    modules; the hybrid configuration replaces half of that capacity with
    4x-denser NVM modules, shrinking both the module count and the number
    of SerDes links in the chains.
    """

    n_dram_modules: int
    n_nvm_modules: int
    dram_module_gb: float = 64.0
    nvm_module_gb: float = 256.0

    def __post_init__(self) -> None:
        if self.n_dram_modules < 0 or self.n_nvm_modules < 0:
            raise ValueError("module counts must be non-negative")
        if self.n_dram_modules + self.n_nvm_modules == 0:
            raise ValueError("external memory needs at least one module")
        if self.dram_module_gb <= 0 or self.nvm_module_gb <= 0:
            raise ValueError("module capacities must be positive")

    @classmethod
    def dram_only(cls, capacity_tb: float = 1.0) -> "ExternalMemoryConfig":
        """The baseline: all-DRAM external memory of *capacity_tb* TB."""
        n = round(capacity_tb * 1000.0 / 64.0)
        return cls(n_dram_modules=n, n_nvm_modules=0)

    @classmethod
    def hybrid(cls, capacity_tb: float = 1.0) -> "ExternalMemoryConfig":
        """Half the capacity moved to 4x-denser NVM (Fig. 9's comparison)."""
        half_gb = capacity_tb * 1000.0 / 2.0
        return cls(
            n_dram_modules=round(half_gb / 64.0),
            n_nvm_modules=round(half_gb / 256.0),
        )

    @property
    def capacity_bytes(self) -> float:
        """Total external capacity in bytes."""
        return (
            self.n_dram_modules * self.dram_module_gb
            + self.n_nvm_modules * self.nvm_module_gb
        ) * 1.0e9

    @property
    def n_links(self) -> int:
        """SerDes links in the chains: one hop per module."""
        return self.n_dram_modules + self.n_nvm_modules

    @property
    def nvm_capacity_share(self) -> float:
        """Fraction of external capacity (and thus interleaved traffic)
        that resides in NVM."""
        nvm = self.n_nvm_modules * self.nvm_module_gb
        total = nvm + self.n_dram_modules * self.dram_module_gb
        return nvm / total


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component node power, watts (numpy-broadcast arrays)."""

    cu_dynamic: np.ndarray
    cu_static: np.ndarray
    cpu: np.ndarray
    noc_dynamic: np.ndarray
    noc_static: np.ndarray
    dram3d_dynamic: np.ndarray
    dram3d_static: np.ndarray
    ext_memory_dynamic: np.ndarray
    ext_memory_static: np.ndarray
    serdes_dynamic: np.ndarray
    serdes_static: np.ndarray

    @property
    def ehp_package(self) -> np.ndarray:
        """Power dissipated inside the EHP package (the DSE's 160 W cap
        and the thermal model's heat source)."""
        return (
            self.cu_dynamic
            + self.cu_static
            + self.cpu
            + self.noc_dynamic
            + self.noc_static
            + self.dram3d_dynamic
            + self.dram3d_static
        )

    @property
    def external(self) -> np.ndarray:
        """External memory network power including SerDes."""
        return (
            self.ext_memory_dynamic
            + self.ext_memory_static
            + self.serdes_dynamic
            + self.serdes_static
        )

    @property
    def total(self) -> np.ndarray:
        """Total ENA node power (the paper's Fig. 9 y-axis)."""
        return self.ehp_package + self.external

    def fig9_categories(self) -> dict[str, np.ndarray]:
        """The six stacked categories of the paper's Fig. 9."""
        other = (
            self.cu_static
            + self.cpu
            + self.noc_dynamic
            + self.noc_static
            + self.dram3d_dynamic
            + self.dram3d_static
        )
        return {
            "SerDes (S)": self.serdes_static,
            "External memory (S)": self.ext_memory_static,
            "SerDes (D)": self.serdes_dynamic,
            "External memory (D)": self.ext_memory_dynamic,
            "CUs (D)": self.cu_dynamic,
            "Other": other,
        }

    def map_components(self, fn) -> "PowerBreakdown":
        """Apply *fn* to every component array, returning a new breakdown."""
        return PowerBreakdown(
            **{f.name: fn(getattr(self, f.name)) for f in fields(self)}
        )


def external_memory_power(
    profile: KernelProfile,
    ext_rate,
    ext_config: ExternalMemoryConfig,
    params: PowerParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Power of the external network for *ext_rate* bytes/s of traffic.

    Returns ``(memory_static, memory_dynamic, serdes_static,
    serdes_dynamic)``. Traffic splits between DRAM and NVM modules in
    proportion to their capacity share (the address space is interleaved
    across modules, Section II-B2).
    """
    ext_rate = np.asarray(ext_rate, dtype=float)
    nvm_share = ext_config.nvm_capacity_share
    bits = ext_rate * 8.0

    dram_bits = bits * (1.0 - nvm_share)
    nvm_bits = bits * nvm_share
    nvm_energy = (
        params.nvm_read_energy_per_bit * (1.0 - profile.write_fraction)
        + params.nvm_write_energy_per_bit * profile.write_fraction
    )
    memory_dynamic = (
        dram_bits * params.ext_dram_energy_per_bit + nvm_bits * nvm_energy
    )
    memory_static = np.asarray(
        ext_config.n_dram_modules * params.ext_dram_static_per_module_watt
        + ext_config.n_nvm_modules * params.nvm_static_per_module_watt,
        dtype=float,
    )
    serdes_static = np.asarray(
        ext_config.n_links * params.serdes_static_per_link_watt, dtype=float
    )
    serdes_dynamic = bits * params.serdes_energy_per_bit
    return memory_static, memory_dynamic, serdes_static, serdes_dynamic


def node_power(
    profile: KernelProfile,
    metrics: KernelMetrics,
    n_cus,
    freq,
    bandwidth,
    params: PowerParams | None = None,
    ext_config: ExternalMemoryConfig | None = None,
) -> PowerBreakdown:
    """Full node power for one kernel evaluation.

    *metrics* must come from evaluating *profile* at the same
    ``(n_cus, freq, bandwidth)`` — the traffic and busy-fraction arrays
    drive the dynamic terms.
    """
    params = params or PowerParams()
    ext_config = ext_config or ExternalMemoryConfig.dram_only()
    n_cus = np.asarray(n_cus, dtype=float)
    freq = np.asarray(freq, dtype=float)
    bandwidth = np.asarray(bandwidth, dtype=float)

    busy = metrics.cu_busy_fraction
    activity = profile.cu_utilization * busy + params.cu_idle_activity * (
        1.0 - busy
    )
    cu_dyn = params.cu_dynamic_power(n_cus, freq, activity)
    cu_stat = params.cu_static_power(n_cus, freq)

    # All DRAM-bound traffic (in-package and outbound) crosses the
    # interposer NoC between the LLCs and the memory interfaces.
    noc_rate = metrics.dram_rate + metrics.ext_rate
    noc_dyn = params.noc_dynamic_power(noc_rate, profile.compression_ratio)
    dram3d_dyn = params.dram3d_dynamic_power(metrics.dram_rate)
    dram3d_stat = params.dram3d_static_power(bandwidth)

    mem_stat, mem_dyn, ser_stat, ser_dyn = external_memory_power(
        profile, metrics.ext_rate, ext_config, params
    )

    shape = np.broadcast(cu_dyn, noc_dyn, mem_dyn).shape

    def _full(x) -> np.ndarray:
        # copyto broadcasts in C, without broadcast_to's ~5 us set-up.
        out = np.empty(shape)
        np.copyto(out, x)
        return out

    return PowerBreakdown(
        cu_dynamic=_full(cu_dyn),
        cu_static=_full(cu_stat),
        cpu=_full(params.cpu_cluster_watt),
        noc_dynamic=_full(noc_dyn),
        noc_static=_full(params.noc_static_watt),
        dram3d_dynamic=_full(dram3d_dyn),
        dram3d_static=_full(dram3d_stat),
        ext_memory_dynamic=_full(mem_dyn),
        ext_memory_static=_full(mem_stat),
        serdes_dynamic=_full(ser_dyn),
        serdes_static=_full(ser_stat),
    )


def node_power_grid(
    batch: ProfileBatch,
    kernel: GridKernel,
    cu_axis,
    freq_axis,
    bw_axis,
    params: PowerParams | None = None,
    ext_config: ExternalMemoryConfig | None = None,
) -> np.ndarray:
    """Fused whole-grid twin of :func:`node_power` for the DSE.

    Consumes the tensors of one
    :func:`~repro.perfmodel.roofline.evaluate_kernel_grid` pass and
    returns just the total node power tensor ``(P, C, F, B)`` — the
    feasibility subject of the exploration. Per-component breakdowns
    (Fig. 9) keep going through the point path.

    The whole roll-up reassociates into two full-tensor passes.
    Every dynamic term is a coefficient over ``time``::

        cu_dynamic  = prefix * [idle + (util - idle) * t_compute/time]
        noc + dram3d dynamic = dram_traffic * energy_coef / time

    so ``total = (cu_coef * t_compute + mem_coef * dram_traffic) /
    time + static``, where the numerator lives on ``(P, C, F, 1)``
    and the static sum (CU static, CPU, NoC static, 3D-DRAM static,
    external network at ``ext_rate = 0``) on ``(C, F, B)``. The
    reassociation perturbs results by a few ULPs relative to
    :func:`node_power` — inside the tensor/point equivalence tests'
    1e-12 rtol and ~5 orders of magnitude below the catalog's closest
    feasibility-boundary margin, so the DSE's feasibility and argmax
    bits cannot flip. Sub-grid decompositions stay exact: every
    coefficient is elementwise over the grid axes.

    Scratch contract: *kernel*'s ``time`` tensor is recycled as the
    output buffer and holds the total power afterwards.
    """
    params = params or PowerParams()
    ext_config = ext_config or ExternalMemoryConfig.dram_only()
    cu = np.asarray(cu_axis, dtype=float).reshape(-1, 1, 1)
    fq = np.asarray(freq_axis, dtype=float).reshape(-1, 1)
    bw = np.asarray(bw_axis, dtype=float).reshape(-1)

    # [PowerParams.cu_dynamic_power] profile-independent prefix of the
    # left-associated product, before the trailing activity factor.
    v = params.vf.voltage(fq)
    prefix = (
        params.async_cu_dynamic_scale
        * cu
        * params.cu_ceff_farad
        * v**2
        * fq
    )  # (C, F, 1)
    cu_stat = params.cu_static_power(cu, fq)  # (C, F, 1)

    # [node_power] activity = util * busy + idle * (1 - busy) with
    # busy = t_compute / time, so
    # cu_dynamic = prefix * idle + prefix * (util - idle) * tc / time.
    idle = params.cu_idle_activity
    util = batch.cu_utilization.reshape(-1, 1, 1, 1)  # (P, 1, 1, 1)
    cu_coef = prefix * (util - idle) * kernel.compute_time  # (P, C, F, 1)

    # [PowerParams.noc_dynamic_power + dram3d_dynamic_power] both are
    # (dram_traffic / time) * 8 * energy; the NoC side additionally
    # divides by the compression ratio when enabled and splits into
    # router/link shares with their optimization scales.
    noc_e = params.noc_energy_per_bit * (
        params.noc_router_fraction * params.async_router_dynamic_scale
        + (1.0 - params.noc_router_fraction) * params.link_dynamic_scale
    )
    if params.compression_enabled:
        e_per_bit = (
            noc_e / batch.compression_ratio.reshape(-1, 1, 1, 1)
            + params.dram3d_energy_per_bit
        )  # (P, 1, 1, 1)
    else:
        e_per_bit = noc_e + params.dram3d_energy_per_bit
    mem_coef = kernel.dram_traffic * (8.0 * e_per_bit)  # (P, C, 1, 1)

    numerator = cu_coef + mem_coef  # (P, C, F, 1)

    # External network at ext_rate = 0: the dynamic terms are exact
    # zeros, so PowerBreakdown.external collapses to the static sum.
    mem_stat, _mem_dyn, ser_stat, _ser_dyn = external_memory_power(
        batch, 0.0, ext_config, params
    )
    external = float(mem_stat) + float(ser_stat)
    static = (
        prefix * idle
        + cu_stat
        + params.cpu_cluster_watt
        + params.noc_static_watt
        + external
    ) + params.dram3d_static_power(bw)  # (C, F, B)

    # The only two full-tensor passes of the entire power model.
    total = np.divide(numerator, kernel.time, out=kernel.time)
    np.add(total, static, out=total)
    return total
