"""In-package 3D DRAM (HBM) stack model.

Section II-B1 projects from JEDEC HBM: generation 1 offers 1 GB at
128 GB/s per stack, generation 2 8 GB at 256 GB/s, and by the exascale
timeframe two more generations double capacity each step (to 32 GB) and
double bandwidth once (to 512 GB/s per stack). Eight stacks give the
EHP's 256 GB at 4 TB/s aggregate.

The stack model provides capacity/bandwidth bookkeeping, refresh-rate
derating above the 85 C retention limit, and a simple bank-level service
model used by the trace-driven simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import _finite_positive, _is_int
from repro.util.units import GB, NS

__all__ = ["HBMTimings", "HBMStack", "hbm_generation"]


@dataclass(frozen=True)
class HBMTimings:
    """First-order DRAM timing/bank parameters for the service model."""

    row_hit_latency: float = 30.0 * NS
    row_miss_latency: float = 60.0 * NS
    n_banks: int = 128
    refresh_interval: float = 64.0e-3
    refresh_penalty: float = 0.05

    def __post_init__(self) -> None:
        for name in (
            "row_hit_latency", "row_miss_latency", "refresh_interval"
        ):
            if not _finite_positive(getattr(self, name)):
                raise ValueError(f"{name} must be finite and positive")
        if self.row_miss_latency < self.row_hit_latency:
            raise ValueError("row miss cannot be faster than row hit")
        if not (_is_int(self.n_banks) and self.n_banks > 0):
            raise ValueError("n_banks must be a positive integer")
        if not 0.0 <= self.refresh_penalty < 1.0:
            raise ValueError("refresh_penalty must be in [0, 1)")


def hbm_generation(generation: int) -> tuple[float, float]:
    """(capacity_bytes, bandwidth_Bps) per stack for an HBM generation.

    Generation 1 = 1 GB / 128 GB/s; capacity doubles each generation;
    bandwidth doubles through generation 2 and once more beyond it
    (interface speed saturates at 2 Gbps, Section II-B1).
    """
    if generation < 1:
        raise ValueError("generation must be >= 1")
    capacity = 1.0 * GB * 2 ** (generation - 1)
    if generation == 1:
        bandwidth = 128.0e9
    elif generation == 2:
        bandwidth = 256.0e9
    else:
        bandwidth = 512.0e9
    return capacity, bandwidth


@dataclass(frozen=True)
class HBMStack:
    """One in-package 3D DRAM stack (exascale-generation by default)."""

    capacity: float = 32.0 * GB
    bandwidth: float = 512.0e9
    timings: HBMTimings = HBMTimings()
    n_dies: int = 4

    def __post_init__(self) -> None:
        for name in ("capacity", "bandwidth"):
            if not _finite_positive(getattr(self, name)):
                raise ValueError(f"{name} must be finite and positive")
        if not (_is_int(self.n_dies) and self.n_dies > 0):
            raise ValueError("n_dies must be a positive integer")

    @classmethod
    def from_generation(cls, generation: int) -> "HBMStack":
        """Build a stack at a given HBM generation's projections."""
        capacity, bandwidth = hbm_generation(generation)
        return cls(capacity=capacity, bandwidth=bandwidth)

    def effective_bandwidth(self, temperature_c: float = 60.0) -> float:
        """Deliverable bandwidth after refresh overhead.

        Above the 85 C retention limit the refresh rate doubles
        (Section V-D's design constraint), doubling the refresh penalty.
        """
        penalty = self.timings.refresh_penalty
        if temperature_c > 85.0:
            penalty = min(0.99, penalty * 2.0)
        return self.bandwidth * (1.0 - penalty)

    def service_latency(self, row_hit_rate: float) -> float:
        """Mean access latency for a given row-buffer hit rate."""
        if not 0.0 <= row_hit_rate <= 1.0:
            raise ValueError("row_hit_rate must be in [0, 1]")
        t = self.timings
        return (
            row_hit_rate * t.row_hit_latency
            + (1.0 - row_hit_rate) * t.row_miss_latency
        )

    def sustained_request_rate(self, row_hit_rate: float) -> float:
        """Bank-limited request throughput (requests/s) by Little's law:
        ``n_banks`` concurrent requests over the mean service latency."""
        return self.timings.n_banks / self.service_latency(row_hit_rate)
