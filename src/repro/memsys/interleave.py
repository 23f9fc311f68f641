"""Physical address interleaving across memory resources.

Section II-B: the ENA's physical address space interleaves across the
eight in-package stacks (and, for external addresses, across the eight
interfaces) at a system-software-controlled granularity, so that no
request ever needs to cross from one memory interface's domain into
another's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import _is_int

__all__ = ["AddressInterleaver"]


@dataclass(frozen=True)
class AddressInterleaver:
    """Granularity-based round-robin address-to-channel mapping."""

    n_channels: int = 8
    granularity: int = 4096

    def __post_init__(self) -> None:
        if not (_is_int(self.n_channels) and self.n_channels > 0):
            raise ValueError("n_channels must be a positive integer")
        g = self.granularity
        if not (_is_int(g) and g > 0 and not g & (g - 1)):
            raise ValueError("granularity must be a positive power of two")

    def channel_of(self, address) -> np.ndarray:
        """Channel index for byte address(es)."""
        address = np.asarray(address, dtype=np.int64)
        if np.any(address < 0):
            raise ValueError("addresses must be non-negative")
        return (address // self.granularity) % self.n_channels

    def offset_within_channel(self, address) -> np.ndarray:
        """Byte offset of address(es) inside their channel's space."""
        address = np.asarray(address, dtype=np.int64)
        if np.any(address < 0):
            raise ValueError("addresses must be non-negative")
        block = address // self.granularity
        within = address % self.granularity
        return (block // self.n_channels) * self.granularity + within

    def channel_histogram(self, addresses) -> np.ndarray:
        """Access counts per channel for an address stream."""
        channels = self.channel_of(addresses)
        return np.bincount(channels, minlength=self.n_channels)

    def balance(self, addresses) -> float:
        """Load balance in (0, 1]: min/max of per-channel counts
        (1.0 is perfectly even; ignores empty streams)."""
        hist = self.channel_histogram(addresses)
        if hist.sum() == 0:
            return 1.0
        peak = hist.max()
        return float(hist.min() / peak) if peak else 1.0

    def remote_fraction(self, addresses, home_channel) -> float:
        """Share of accesses leaving *home_channel* — the NoC model's
        out-of-chiplet traffic source (7/8 for uniform streams)."""
        channels = self.channel_of(addresses)
        if channels.size == 0:
            return 0.0
        return float(np.mean(channels != home_channel))
