"""Kernel profile abstraction.

A :class:`KernelProfile` is the library's unit of workload description. It
captures, in a dozen scalars, what the paper's authors measured on real
hardware with performance counters: operational intensity, scaling
efficiency, cache behaviour, latency tolerance, and activity factors. Every
model in the library (performance, power, thermal, NoC, RAS) consumes only
the profile, never an application binary — exactly mirroring the paper's
high-level-simulation methodology, where measured counters feed analytic and
machine-learning scaling models.
"""

from __future__ import annotations

import enum
import math
import operator
import struct
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from repro.core.config import _finite_positive


class KernelCategory(enum.Enum):
    """The paper's Section IV taxonomy of kernel behaviour."""

    COMPUTE_INTENSIVE = "compute-intensive"
    BALANCED = "balanced"
    MEMORY_INTENSIVE = "memory-intensive"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class KernelProfile:
    """Measured characteristics of one application kernel.

    Parameters
    ----------
    name:
        Application name as it appears in Table I (e.g., ``"LULESH"``).
    category:
        Behavioural category from Section IV.
    description:
        Table I description string.
    flops:
        Total double-precision floating-point operations in one kernel
        invocation. The absolute value only sets the time scale; all the
        paper's figures are normalized.
    bytes_per_flop:
        Bytes *requested* from the memory system per flop, before cache
        filtering. The inverse of the kernel's intrinsic operational
        intensity.
    parallel_fraction:
        Exponent ``alpha`` in the CU-count scaling law ``throughput ~
        n_cus**alpha``: 1.0 scales perfectly with more CUs; lower values
        model serialization, divergence, and load imbalance.
    cache_hit_rate:
        LLC hit rate at the reference concurrency (one fully occupied
        GPU chiplet). Requests that hit never reach DRAM.
    thrash_pressure:
        How quickly the hit rate collapses as concurrency grows beyond the
        reference point. Zero means the working set is concurrency-
        insensitive; large values produce the rise-then-fall curves of the
        paper's memory-intensive kernels (Fig. 6).
    latency_sensitivity:
        Fraction of memory stall time that wavefront parallelism cannot
        hide; irregular-access kernels (LULESH) have high values.
    mlp_per_cu:
        Sustained outstanding cache-line misses per CU (memory-level
        parallelism). With ``latency_sensitivity`` this sets the
        latency-bound throughput via Little's law.
    ext_memory_fraction:
        Fraction of DRAM traffic served by the external (off-package)
        memory network under the paper's HMA-style management (reported
        46-89% across applications). Used by the power and Fig. 8 models.
    cu_utilization:
        Dynamic activity factor of a busy CU (switching capacitance
        utilization), used by the power model.
    issue_efficiency:
        Fraction of peak issue slots the kernel achieves when it is
        compute-bound (instruction mix, bank conflicts, pipeline bubbles).
        MaxFlops reaches ~0.9 of the 64 DP-flops/cycle/CU peak, matching
        the paper's 18.6 TF at 320 CUs and 1 GHz. In (0, 1]: at zero the
        compute time is infinite and the node power not finite.
    write_fraction:
        Fraction of memory traffic that is writes; drives NVM dynamic
        energy asymmetry in the external-memory study (Fig. 9).
    compression_ratio:
        Achievable compression factor on LLC<->DRAM traffic (>= 1.0);
        drives the DRAM-traffic-compression optimization (Section V-E,
        Fig. 12). FP-heavy irregular data compresses modestly.
    footprint_bytes:
        Problem working-set size, used by the memory manager and trace
        generator.
    provenance:
        Free-form note recording how the numbers were obtained (e.g.,
        "calibrated to Table II optimum").
    """

    name: str
    category: KernelCategory
    description: str
    flops: float = 1.0e12
    bytes_per_flop: float = 0.5
    parallel_fraction: float = 0.95
    cache_hit_rate: float = 0.5
    thrash_pressure: float = 0.0
    latency_sensitivity: float = 0.1
    mlp_per_cu: float = 64.0
    ext_memory_fraction: float = 0.6
    cu_utilization: float = 0.7
    issue_efficiency: float = 0.9
    write_fraction: float = 0.3
    compression_ratio: float = 1.4
    footprint_bytes: float = 64.0e9
    provenance: str = "unspecified"
    extra: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._check_unit_interval("parallel_fraction", self.parallel_fraction)
        self._check_unit_interval("cache_hit_rate", self.cache_hit_rate)
        self._check_unit_interval(
            "latency_sensitivity", self.latency_sensitivity
        )
        self._check_unit_interval(
            "ext_memory_fraction", self.ext_memory_fraction
        )
        self._check_unit_interval("cu_utilization", self.cu_utilization)
        self._check_unit_interval("write_fraction", self.write_fraction)
        if not 0.0 < self.issue_efficiency <= 1.0:
            raise ValueError(
                f"issue_efficiency must be in (0, 1], "
                f"got {self.issue_efficiency}"
            )
        for positive_field in ("flops", "mlp_per_cu", "footprint_bytes"):
            value = getattr(self, positive_field)
            if not _finite_positive(value):
                raise ValueError(
                    f"{positive_field} must be finite and positive, "
                    f"got {value}"
                )
        if not 1.0 <= self.compression_ratio < math.inf:
            raise ValueError("compression_ratio must be finite and >= 1.0")
        for nonneg_field in ("bytes_per_flop", "thrash_pressure"):
            value = getattr(self, nonneg_field)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"{nonneg_field} must be finite and non-negative, "
                    f"got {value}"
                )

    @staticmethod
    def _check_unit_interval(name: str, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def operational_intensity(self) -> float:
        """Intrinsic flops per requested byte (before cache filtering)."""
        if self.bytes_per_flop == 0:
            return float("inf")
        return 1.0 / self.bytes_per_flop

    def with_overrides(self, **changes: object) -> "KernelProfile":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **changes)

    def scaled_problem(self, factor: float) -> "KernelProfile":
        """Return a copy with flops and footprint scaled by *factor*.

        Weak-scaling helper for the examples: the per-byte and per-flop
        characteristics are size-invariant in this model.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(
            self,
            flops=self.flops * factor,
            footprint_bytes=self.footprint_bytes * factor,
        )


_BATCH_FIELDS: tuple[str, ...] = (
    "flops",
    "bytes_per_flop",
    "parallel_fraction",
    "cache_hit_rate",
    "thrash_pressure",
    "latency_sensitivity",
    "mlp_per_cu",
    "ext_memory_fraction",
    "cu_utilization",
    "issue_efficiency",
    "write_fraction",
    "compression_ratio",
    "footprint_bytes",
)
"""Numeric :class:`KernelProfile` fields a :class:`ProfileBatch` stacks."""


@dataclass(frozen=True, eq=False)
class ProfileBatch:
    """Struct-of-arrays stack of ``P`` kernel profiles.

    Each numeric :class:`KernelProfile` field (the names in
    :data:`_BATCH_FIELDS`) becomes a float64 column of shape ``(P, 1)``.
    The trailing singleton axis makes a column broadcast against one
    flattened grid axis out of the box; the fused
    ``(profile, CU, freq, BW)`` tensor pass reshapes the columns itself.

    The batch re-validates the profile invariants (unit intervals,
    positive flops/MLP/issue efficiency, compression >= 1) even when
    constructed from raw columns: the fused evaluation path relies on
    them — e.g. it drops division guards that are dead only because
    ``flops > 0``.
    """

    names: tuple[str, ...]
    flops: np.ndarray
    bytes_per_flop: np.ndarray
    parallel_fraction: np.ndarray
    cache_hit_rate: np.ndarray
    thrash_pressure: np.ndarray
    latency_sensitivity: np.ndarray
    mlp_per_cu: np.ndarray
    ext_memory_fraction: np.ndarray
    cu_utilization: np.ndarray
    issue_efficiency: np.ndarray
    write_fraction: np.ndarray
    compression_ratio: np.ndarray
    footprint_bytes: np.ndarray

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise ValueError("a ProfileBatch needs at least one profile")
        if len(set(names)) != len(names):
            raise ValueError("profile names must be unique")
        expected = (len(names), 1)
        for fname in _BATCH_FIELDS:
            col = np.asarray(getattr(self, fname), dtype=float)
            if col.shape != expected:
                raise ValueError(
                    f"{fname} column must have shape {expected}, "
                    f"got {col.shape}"
                )
            object.__setattr__(self, fname, col)
        # Per-column extremes in one pass, not ~20 numpy calls per
        # batch.
        table = np.hstack([getattr(self, f) for f in _BATCH_FIELDS])
        if not np.isfinite(table).all():
            raise ValueError("profile columns must be finite")
        lo = dict(zip(_BATCH_FIELDS, np.fmin.reduce(table).tolist()))
        hi = dict(zip(_BATCH_FIELDS, np.fmax.reduce(table).tolist()))
        for fname in (
            "parallel_fraction",
            "cache_hit_rate",
            "latency_sensitivity",
            "ext_memory_fraction",
            "cu_utilization",
            "write_fraction",
        ):
            if lo[fname] < 0.0 or hi[fname] > 1.0:
                raise ValueError(f"{fname} must be in [0, 1]")
        if lo["issue_efficiency"] <= 0.0 or hi["issue_efficiency"] > 1.0:
            raise ValueError("issue_efficiency must be in (0, 1]")
        for fname in ("flops", "mlp_per_cu", "footprint_bytes"):
            if lo[fname] <= 0:
                raise ValueError(f"{fname} must be positive")
        if lo["compression_ratio"] < 1.0:
            raise ValueError("compression_ratio must be >= 1.0")
        for fname in ("bytes_per_flop", "thrash_pressure"):
            if lo[fname] < 0:
                raise ValueError(f"{fname} must be non-negative")

    @classmethod
    def from_profiles(
        cls, profiles: Sequence[KernelProfile]
    ) -> "ProfileBatch":
        """Stack validated profiles into columns, preserving order."""
        profiles = list(profiles)
        if not profiles:
            raise ValueError("a ProfileBatch needs at least one profile")
        # One (F, P) table; each column is a contiguous row of it.
        table = np.array(
            [[float(getattr(p, f)) for p in profiles] for f in _BATCH_FIELDS]
        )
        return cls(
            names=tuple(p.name for p in profiles),
            **{f: row[:, None] for f, row in zip(_BATCH_FIELDS, table)},
        )

    @staticmethod
    def field_names() -> tuple[str, ...]:
        """The stacked column names, in declaration order."""
        return _BATCH_FIELDS

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, index) -> "ProfileBatch":
        """Row-slice the batch (``batch[2:5]``) into a smaller batch."""
        if isinstance(index, (int, np.integer)):
            index = slice(index, index + 1 or None)
        if not isinstance(index, slice):
            raise TypeError("ProfileBatch supports int/slice indexing only")
        names = self.names[index]
        if not names:
            raise IndexError("empty ProfileBatch slice")
        return ProfileBatch(
            names=names,
            **{f: getattr(self, f)[index] for f in _BATCH_FIELDS},
        )


_profile_values = operator.attrgetter(*_BATCH_FIELDS)
_pack_profile_values = struct.Struct(f"{len(_BATCH_FIELDS)}d").pack


def profile_key(profile: KernelProfile) -> tuple[str, bytes]:
    """What the model reads of *profile*: its name and the raw bytes of
    every field a :class:`ProfileBatch` stacks. Two profiles share a key
    exactly when the model sees the same inputs for them, so a memo
    keyed by it never hands one profile another's answer (a
    :meth:`KernelProfile.with_overrides` copy keeps the name). Bytes,
    not floats, so ``-0.0`` and ``0.0`` never share a key."""
    return profile.name, _pack_profile_values(*_profile_values(profile))
