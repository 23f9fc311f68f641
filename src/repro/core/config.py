"""Design-point and design-space descriptions for the EHP.

An :class:`EHPConfig` is one point in the paper's exploration space — a
CU count, GPU frequency, and in-package memory bandwidth, plus the
structural parameters (chiplet counts, CPU provisioning, DRAM capacity)
that stay fixed across the study. A :class:`DesignSpace` is the grid the
Section V exploration sweeps, together with its power and area budgets.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from repro.util.units import GB, GHZ, MHZ, TB

__all__ = [
    "EHPConfig",
    "DesignSpace",
    "PAPER_BEST_MEAN",
    "PAPER_BEST_MEAN_OPTIMIZED",
]


def _finite_positive(value: float) -> bool:
    """``0 < value < inf`` — false for NaN, which every comparison is."""
    return 0 < value < math.inf


def _is_int(value) -> bool:
    """A real integer: ``2.0`` and ``True`` do not count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _cu_tuple(cu_counts) -> tuple[int, ...]:
    """*cu_counts* as Python ints; ``ValueError`` on any count that is
    not a real integer, so 256.7 is never truncated to 256."""
    counts = tuple(cu_counts)
    for n in counts:
        if not _is_int(n):
            raise ValueError(f"CU counts must be integers, got {n!r}")
    return tuple(int(n) for n in counts)


@dataclass(frozen=True)
class EHPConfig:
    """One EHP design point.

    The three swept axes are ``n_cus``, ``gpu_freq`` and ``bandwidth``;
    everything else describes the fixed node organization of Section II.
    """

    n_cus: int = 320
    gpu_freq: float = 1.0 * GHZ
    bandwidth: float = 3.0 * TB

    n_gpu_chiplets: int = 8
    n_cpu_chiplets: int = 8
    cores_per_cpu_chiplet: int = 4
    n_dram_stacks: int = 8
    dram_stack_capacity: float = 32.0 * GB
    ext_capacity: float = 1.0 * TB
    max_cus: int = 384

    def __post_init__(self) -> None:
        if self.n_gpu_chiplets <= 0 or self.n_cpu_chiplets <= 0:
            raise ValueError("chiplet counts must be positive")
        self.check_cu_count(self.n_cus)
        if not (
            _finite_positive(self.gpu_freq)
            and _finite_positive(self.bandwidth)
        ):
            raise ValueError(
                "gpu_freq and bandwidth must be finite and positive"
            )

    def check_cu_count(self, n_cus) -> None:
        """Raise ``ValueError`` unless *n_cus* fits this organization: a
        positive integer within the area budget that divides evenly
        across the GPU chiplets."""
        if not _is_int(n_cus) or n_cus <= 0:
            raise ValueError(
                f"n_cus must be a positive integer, got {n_cus!r}"
            )
        if n_cus > self.max_cus:
            raise ValueError(
                f"n_cus={n_cus} exceeds the package area budget of "
                f"{self.max_cus} CUs (Section VI)"
            )
        if n_cus % self.n_gpu_chiplets != 0:
            raise ValueError(
                f"n_cus={n_cus} must divide evenly across "
                f"{self.n_gpu_chiplets} GPU chiplets"
            )

    @property
    def cus_per_chiplet(self) -> int:
        """CUs on each GPU chiplet."""
        return self.n_cus // self.n_gpu_chiplets

    @property
    def n_cpu_cores(self) -> int:
        """Total CPU cores (32 in the paper's provisioning)."""
        return self.n_cpu_chiplets * self.cores_per_cpu_chiplet

    @property
    def dram3d_capacity(self) -> float:
        """Total in-package 3D DRAM capacity, bytes (256 GB baseline)."""
        return self.n_dram_stacks * self.dram_stack_capacity

    @property
    def peak_dp_flops(self) -> float:
        """Peak double-precision throughput at 64 flops/CU/cycle."""
        return 64.0 * self.n_cus * self.gpu_freq

    @property
    def ops_per_byte(self) -> float:
        """The x-axis of the paper's Figs. 4-6: CU-count x frequency over
        bandwidth (CU.GHz per GB/s, dimensionally as plotted)."""
        return self.n_cus * (self.gpu_freq / GHZ) / (self.bandwidth / 1.0e9)

    def label(self) -> str:
        """Compact ``CUs / MHz / TB/s`` label used by Table II."""
        return (
            f"{self.n_cus} / {self.gpu_freq / MHZ:.0f} / "
            f"{self.bandwidth / TB:.0f}"
        )

    def with_axes(
        self, n_cus: int | None = None, gpu_freq: float | None = None,
        bandwidth: float | None = None,
    ) -> "EHPConfig":
        """Copy with any of the three swept axes replaced."""
        return replace(
            self,
            n_cus=self.n_cus if n_cus is None else n_cus,
            gpu_freq=self.gpu_freq if gpu_freq is None else gpu_freq,
            bandwidth=self.bandwidth if bandwidth is None else bandwidth,
        )


PAPER_BEST_MEAN = EHPConfig(n_cus=320, gpu_freq=1.0 * GHZ, bandwidth=3.0 * TB)
"""Section V's best-mean configuration without power optimizations."""

PAPER_BEST_MEAN_OPTIMIZED = EHPConfig(
    n_cus=288, gpu_freq=1.1 * GHZ, bandwidth=3.0 * TB
)
"""Fig. 13's best-mean configuration with all power optimizations."""


def _default_cu_counts() -> tuple[int, ...]:
    return tuple(range(192, 385, 32))


def _default_freqs() -> tuple[float, ...]:
    return tuple(f * MHZ for f in range(700, 1501, 25))


def _default_bandwidths() -> tuple[float, ...]:
    return tuple(b * TB for b in range(1, 8))


@dataclass(frozen=True)
class DesignSpace:
    """The exploration grid and its budgets (Sections V and VI).

    The default grid spans 192-384 CUs in chiplet-sized steps, 700-1500
    MHz in 25 MHz steps, and 1-7 TB/s — 1617 configurations, matching the
    paper's "over a thousand different hardware configurations". The
    power budget applies to the EHP package (the node's 200 W envelope
    minus cooling, inter-node network and external memory headroom).
    """

    cu_counts: Sequence[int] = field(default_factory=_default_cu_counts)
    frequencies: Sequence[float] = field(default_factory=_default_freqs)
    bandwidths: Sequence[float] = field(default_factory=_default_bandwidths)
    power_budget: float = 160.0
    base_config: EHPConfig = field(default_factory=EHPConfig)

    def __post_init__(self) -> None:
        # Tuples, so an equal space is an equal, hashable key (the
        # serving layer groups and memoizes sweeps by their space).
        for axis in ("cu_counts", "frequencies", "bandwidths"):
            object.__setattr__(self, axis, tuple(getattr(self, axis)))
        if not self.cu_counts or not self.frequencies or not self.bandwidths:
            raise ValueError("all three sweep axes must be non-empty")
        if not all(map(_finite_positive, self.frequencies)) or not all(
            map(_finite_positive, self.bandwidths)
        ):
            raise ValueError(
                "frequencies and bandwidths must be finite and positive"
            )
        if not _finite_positive(self.power_budget):
            raise ValueError("power_budget must be finite and positive")
        for n_cus in self.cu_counts:
            self.base_config.check_cu_count(n_cus)

    @property
    def size(self) -> int:
        """Number of grid points."""
        return (
            len(self.cu_counts) * len(self.frequencies) * len(self.bandwidths)
        )

    def grid_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened meshgrid ``(cus, freqs, bws)`` arrays of length
        :attr:`size`, in C order (CUs outermost)."""
        cus, freqs, bws = np.meshgrid(
            np.asarray(self.cu_counts, dtype=float),
            np.asarray(self.frequencies, dtype=float),
            np.asarray(self.bandwidths, dtype=float),
            indexing="ij",
        )
        return cus.ravel(), freqs.ravel(), bws.ravel()

    def config_at(self, flat_index: int) -> EHPConfig:
        """The :class:`EHPConfig` at a flattened grid index."""
        if not 0 <= flat_index < self.size:
            raise IndexError(f"index {flat_index} outside grid of {self.size}")
        n_bw = len(self.bandwidths)
        n_freq = len(self.frequencies)
        i_cu, rem = divmod(flat_index, n_freq * n_bw)
        i_freq, i_bw = divmod(rem, n_bw)
        return self.base_config.with_axes(
            n_cus=int(self.cu_counts[i_cu]),
            gpu_freq=float(self.frequencies[i_freq]),
            bandwidth=float(self.bandwidths[i_bw]),
        )

    def iter_configs(self) -> Iterator[EHPConfig]:
        """Iterate every grid point as an :class:`EHPConfig`."""
        for cus, freq, bw in itertools.product(
            self.cu_counts, self.frequencies, self.bandwidths
        ):
            yield self.base_config.with_axes(
                n_cus=int(cus), gpu_freq=float(freq), bandwidth=float(bw)
            )
