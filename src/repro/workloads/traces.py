"""Synthetic memory-trace generation.

The trace-driven simulator substrate (:mod:`repro.sim`) cross-checks the
analytic model the way the paper uses the AMD gem5 APU simulator: by
running address streams whose locality statistics match each kernel
profile. A :class:`TraceGenerator` turns a profile into a
:class:`MemoryTrace` — a sequence of (address, is_write, flops-between)
records — with the profile's reuse, stride and write-ratio behaviour.

The generator mixes three canonical access patterns:

* **streaming** — sequential cache lines over a large extent (stencils),
* **reuse** — a hot working set revisited with geometric popularity
  (caches hit on these),
* **random** — uniform accesses over the footprint (XSBench-style table
  lookups; these defeat both caches and prefetchers).

The mix is derived from the profile: ``cache_hit_rate`` sets the hot-set
share, ``latency_sensitivity`` sets the random share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import _is_int
from repro.workloads.kernels import KernelProfile

__all__ = ["MemoryTrace", "TraceGenerator"]

_LINE = 64


@dataclass(frozen=True)
class MemoryTrace:
    """A flat synthetic trace.

    Attributes
    ----------
    addresses:
        Byte addresses, aligned to cache lines.
    is_write:
        Boolean per access.
    flops_between:
        Floating-point work attributed between consecutive accesses
        (drives compute/memory interleaving in the simulator).
    footprint_bytes:
        Extent of the address space the trace touches.
    """

    addresses: np.ndarray
    is_write: np.ndarray
    flops_between: np.ndarray
    footprint_bytes: float

    def __post_init__(self) -> None:
        n = len(self.addresses)
        if len(self.is_write) != n or len(self.flops_between) != n:
            raise ValueError("trace arrays must have equal length")
        if n and int(self.addresses.max()) >= self.footprint_bytes:
            raise ValueError("address outside declared footprint")

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def write_fraction(self) -> float:
        """Measured write share of the trace."""
        if len(self.is_write) == 0:
            return 0.0
        return float(np.mean(self.is_write))

    @property
    def unique_lines(self) -> int:
        """Number of distinct cache lines touched."""
        return int(np.unique(self.addresses // _LINE).size)


class TraceGenerator:
    """Deterministic (seeded) trace synthesis from a kernel profile.

    *seed* must be a non-negative integer (not a bool).
    """

    def __init__(self, profile: KernelProfile, seed: int = 0):
        if not _is_int(seed) or seed < 0:
            raise ValueError(
                f"seed must be a non-negative integer, got {seed!r}"
            )
        self.profile = profile
        self.seed = seed

    def generate(self, n_accesses: int = 100_000) -> MemoryTrace:
        """Generate a trace of *n_accesses* line-aligned accesses
        (a positive integer, not a bool)."""
        if not _is_int(n_accesses) or n_accesses <= 0:
            raise ValueError(
                f"n_accesses must be a positive integer, got {n_accesses!r}"
            )
        p = self.profile
        rng = np.random.default_rng(self.seed)

        # Keep the modeled footprint but cap the synthetic extent so the
        # trace remains simulable; locality ratios are what matter.
        extent = int(min(p.footprint_bytes, 1 << 30))
        extent -= extent % _LINE
        extent = max(extent, _LINE * 1024)
        n_lines = extent // _LINE

        random_share = p.latency_sensitivity
        reuse_share = (1.0 - random_share) * p.cache_hit_rate
        stream_share = max(0.0, 1.0 - random_share - reuse_share)
        mix = rng.choice(
            3, size=n_accesses, p=[stream_share, reuse_share, random_share]
        )

        addresses = np.empty(n_accesses, dtype=np.int64)
        # Streaming: several concurrent sequential cursors (wavefronts).
        n_streams = 16
        cursors = rng.integers(0, n_lines, size=n_streams)
        stream_idx = np.flatnonzero(mix == 0)
        which = rng.integers(0, n_streams, size=stream_idx.size)
        for s in range(n_streams):
            sel = stream_idx[which == s]
            steps = np.arange(1, sel.size + 1)
            addresses[sel] = ((cursors[s] + steps) % n_lines) * _LINE
        # Reuse: hot set with geometric popularity.
        hot_lines = max(64, int(n_lines * 0.01))
        reuse_idx = np.flatnonzero(mix == 1)
        ranks = rng.geometric(p=0.02, size=reuse_idx.size) % hot_lines
        addresses[reuse_idx] = ranks * _LINE
        # Random: uniform over the footprint.
        rand_idx = np.flatnonzero(mix == 2)
        addresses[rand_idx] = rng.integers(0, n_lines, size=rand_idx.size) * _LINE

        is_write = rng.random(n_accesses) < p.write_fraction
        # Average flops between accesses follows operational intensity.
        mean_flops = max(p.operational_intensity * _LINE, 1.0)
        if not np.isfinite(mean_flops):
            mean_flops = 1.0e6
        flops_between = rng.exponential(mean_flops, size=n_accesses)

        return MemoryTrace(
            addresses=addresses,
            is_write=is_write,
            flops_between=flops_between,
            footprint_bytes=float(extent),
        )
