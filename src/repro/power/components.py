"""Per-component power constants and primitive power equations.

Anchors (documented per constant below):

* Fig. 14 — 320 CUs at 1 GHz running MaxFlops draw ~111 W of EHP power
  (11.1 MW across 100,000 nodes). That pins the CU switched capacitance.
* Fig. 9 — DRAM-only external memory draws ~27 W of DRAM static/refresh
  and ~10 W of SerDes background power; external power spans 40-70 W.
* Section V-E — the NTC/async/link/compression optimizations save 13-27%
  of node power in combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.power.vf import VFCurve
from repro.util.units import PJ, TB

__all__ = ["PowerParams"]


@dataclass(frozen=True)
class PowerParams:
    """All power-model constants for one technology point.

    Dynamic energies are joules per bit unless noted; static powers are
    watts per unit. Optimization state (NTC voltage scale, async factors,
    link mode, compression) is carried here so a single ``PowerParams``
    value fully determines node power for a given workload and config —
    the design-space exploration with optimizations enabled just swaps in
    a different ``PowerParams``.
    """

    vf: VFCurve = field(default_factory=VFCurve)

    # --- GPU compute units ------------------------------------------------
    cu_ceff_farad: float = 4.13e-10
    """Effective switched capacitance per CU (F). Jointly anchored to
    Fig. 14 (320 CUs at 1 GHz running MaxFlops ~= 111 W of EHP power) and
    to Table II (MaxFlops' best configuration, 384 CUs at 925 MHz, sits
    exactly on the 160 W feasibility boundary)."""

    cu_leakage_watt: float = 0.045
    """Static power per CU at the reference voltage (W)."""

    cu_idle_activity: float = 0.10
    """Residual activity factor of a CU that is memory-stalled (clock
    tree and scheduler keep switching)."""

    # --- CPU cluster (fixed provisioning in this study) --------------------
    cpu_cluster_watt: float = 8.0
    """Combined power of the 8 CPU chiplets while the GPU kernels run
    (host threads, OS, coherence). The paper's kernels are GPU-resident."""

    # --- on-package interconnect -------------------------------------------
    noc_energy_per_bit: float = 2.0 * PJ
    """LLC <-> in-package DRAM transport energy (pJ/bit). The authors'
    measurements (reference [41]) found a substantial share of EHP power
    in the long-distance LLC <-> memory interconnect; this
    distance-weighted average makes routers/links/compression matter the
    way Fig. 12 reports."""

    noc_router_fraction: float = 0.55
    """Fraction of NoC dynamic energy spent in routers (vs. links)."""

    noc_static_watt: float = 4.0
    """Interposer NoC background power (W)."""

    # --- in-package 3D DRAM -------------------------------------------------
    dram3d_energy_per_bit: float = 1.2 * PJ
    """HBM-generation-4 access energy (pJ/bit)."""

    dram3d_static_per_stack_watt: float = 0.8
    """Background + refresh power per 32 GB stack (W)."""

    dram3d_interface_watt_per_tbps: float = 3.0
    """PHY/interface power provisioned per TB/s of in-package bandwidth
    (W). This is what makes bandwidth cost power in the DSE even for
    kernels that do not use it."""

    n_dram3d_stacks: int = 8

    # --- external memory network ---------------------------------------------
    ext_dram_static_per_module_watt: float = 1.7
    """Background/refresh power per external DRAM module (W). Sixteen
    64 GB modules give the ~27 W the paper reports."""

    ext_dram_energy_per_bit: float = 8.0 * PJ
    """External DRAM access energy including module-internal transport."""

    nvm_static_per_module_watt: float = 0.05
    """NVM background power ('negligible' per the paper)."""

    nvm_read_energy_per_bit: float = 25.0 * PJ
    nvm_write_energy_per_bit: float = 80.0 * PJ
    """NVM access energies; the read/write asymmetry drives Fig. 9's
    finding that write-heavy external traffic makes NVM expensive."""

    serdes_static_per_link_watt: float = 0.625
    """Background power per SerDes link (W); the DRAM-only configuration's
    sixteen module links give the ~10 W the paper reports."""

    serdes_energy_per_bit: float = 1.6 * PJ
    """SerDes transport energy per bit moved off package."""

    # --- optimization state (Section V-E) ---------------------------------
    async_cu_dynamic_scale: float = 1.0
    """Multiplier on CU dynamic power; asynchronous ALUs/crossbars < 1."""

    async_router_dynamic_scale: float = 1.0
    """Multiplier on NoC router dynamic power."""

    link_dynamic_scale: float = 1.0
    """Multiplier on NoC link dynamic power (low-power link mode)."""

    compression_enabled: bool = False
    """When true, LLC<->DRAM traffic energy is divided by the kernel's
    compression ratio."""

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name != "vf" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in (
            "cu_ceff_farad",
            "cu_leakage_watt",
            "noc_energy_per_bit",
            "dram3d_energy_per_bit",
            "ext_dram_energy_per_bit",
            "nvm_read_energy_per_bit",
            "nvm_write_energy_per_bit",
            "serdes_energy_per_bit",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in (
            "cu_idle_activity",
            "noc_router_fraction",
            "async_cu_dynamic_scale",
            "async_router_dynamic_scale",
            "link_dynamic_scale",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.n_dram3d_stacks <= 0:
            raise ValueError("n_dram3d_stacks must be positive")

    # --- primitive equations ------------------------------------------------

    def cu_dynamic_power(self, n_cus, freq, activity) -> np.ndarray:
        """Dynamic power of *n_cus* CUs at *freq* with *activity* factor."""
        n_cus = np.asarray(n_cus, dtype=float)
        freq = np.asarray(freq, dtype=float)
        activity = np.asarray(activity, dtype=float)
        v = self.vf.voltage(freq)
        return (
            self.async_cu_dynamic_scale
            * n_cus
            * self.cu_ceff_farad
            * (v * v)
            * freq
            * activity
        )

    def cu_static_power(self, n_cus, freq) -> np.ndarray:
        """Leakage power; linear in supply voltage at nominal rail,
        disproportionately reduced under near-threshold operation (see
        :meth:`VFCurve.static_voltage_factor`)."""
        n_cus = np.asarray(n_cus, dtype=float)
        return (
            n_cus * self.cu_leakage_watt * self.vf.static_voltage_factor(freq)
        )

    def noc_dynamic_power(self, traffic_rate, compression_ratio=1.0) -> np.ndarray:
        """On-package transport power for *traffic_rate* bytes/s."""
        bits = np.asarray(traffic_rate, dtype=float) * 8.0
        if self.compression_enabled:
            bits = bits / compression_ratio
        router = bits * self.noc_energy_per_bit * self.noc_router_fraction
        link = bits * self.noc_energy_per_bit * (1.0 - self.noc_router_fraction)
        return (
            router * self.async_router_dynamic_scale
            + link * self.link_dynamic_scale
        )

    def dram3d_dynamic_power(self, traffic_rate) -> np.ndarray:
        """In-package DRAM access power for *traffic_rate* bytes/s.

        Compression does not apply here: the paper compresses the network
        messages between the LLC and memory, not the DRAM array accesses.
        """
        bits = np.asarray(traffic_rate, dtype=float) * 8.0
        return bits * self.dram3d_energy_per_bit

    def dram3d_static_power(self, bandwidth) -> np.ndarray:
        """Stack background power plus interface provisioning for *bandwidth* B/s."""
        bandwidth = np.asarray(bandwidth, dtype=float)
        return (
            self.n_dram3d_stacks * self.dram3d_static_per_stack_watt
            + self.dram3d_interface_watt_per_tbps * bandwidth / TB
        )

    def with_optimizations(self, **changes: object) -> "PowerParams":
        """Return a copy with optimization fields replaced (validated)."""
        return replace(self, **changes)
