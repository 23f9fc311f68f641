"""Non-volatile memory module model.

Section II-B2 and V-C: NVM offers ~4x DRAM density with negligible
static power, but higher (and asymmetric) access energy — especially for
writes — plus finite write endurance that can limit the node's MTTF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import _finite_positive
from repro.util.units import GB, NS, PJ

__all__ = ["NVMParams", "NVMModule"]


@dataclass(frozen=True)
class NVMParams:
    """Technology parameters for one NVM device class."""

    read_latency: float = 300.0 * NS
    write_latency: float = 1000.0 * NS
    read_energy_per_bit: float = 25.0 * PJ
    write_energy_per_bit: float = 80.0 * PJ
    endurance_writes: float = 1.0e8
    static_power_watt: float = 0.05

    def __post_init__(self) -> None:
        for name in (
            "read_latency", "write_latency", "read_energy_per_bit",
            "write_energy_per_bit", "endurance_writes",
        ):
            if not _finite_positive(getattr(self, name)):
                raise ValueError(f"{name} must be finite and positive")
        if not 0 <= self.static_power_watt < math.inf:
            raise ValueError(
                "static_power_watt must be finite and non-negative"
            )


@dataclass(frozen=True)
class NVMModule:
    """One external NVM module (4x the capacity of a DRAM module)."""

    capacity: float = 256.0 * GB
    params: NVMParams = NVMParams()

    def __post_init__(self) -> None:
        if not _finite_positive(self.capacity):
            raise ValueError("capacity must be finite and positive")

    def access_energy(self, bytes_: float, write_fraction: float) -> float:
        """Energy (J) to move *bytes_* with the given write share."""
        if bytes_ < 0:
            raise ValueError("bytes must be non-negative")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        bits = bytes_ * 8.0
        return bits * (
            self.params.read_energy_per_bit * (1.0 - write_fraction)
            + self.params.write_energy_per_bit * write_fraction
        )

    def mean_latency(self, write_fraction: float) -> float:
        """Mean access latency for the given write share."""
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        return (
            self.params.read_latency * (1.0 - write_fraction)
            + self.params.write_latency * write_fraction
        )

    def lifetime_seconds(
        self, write_rate_bps: float, wear_leveling_efficiency: float = 0.9
    ) -> float:
        """Wear-out time under a sustained write load.

        Perfect wear leveling spreads ``endurance_writes`` full-device
        overwrites across the module; *wear_leveling_efficiency* derates
        that ideal.
        """
        if write_rate_bps < 0:
            raise ValueError("write rate must be non-negative")
        if not 0.0 < wear_leveling_efficiency <= 1.0:
            raise ValueError("wear_leveling_efficiency must be in (0, 1]")
        if write_rate_bps == 0:
            return float("inf")
        total_writable = (
            self.capacity
            * self.params.endurance_writes
            * wear_leveling_efficiency
        )
        return total_writable / write_rate_bps
