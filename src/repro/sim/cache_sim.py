"""Set-associative cache hierarchy simulator.

Functional (hit/miss) cache levels with LRU replacement, composable into
a hierarchy. Used by the trace-driven APU simulator to measure the
locality a synthetic trace actually achieves, cross-checking the
analytic model's ``cache_hit_rate``/``thrash_pressure`` abstraction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.config import _finite_positive, _is_int

__all__ = ["CacheLevel", "CacheSim"]


@dataclass
class _LevelStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class CacheLevel:
    """One set-associative level with LRU replacement."""

    def __init__(
        self,
        name: str,
        capacity_bytes: int,
        line_bytes: int = 64,
        associativity: int = 16,
    ):
        if not _finite_positive(capacity_bytes):
            raise ValueError("capacity_bytes must be finite and positive")
        for param, value in (
            ("line_bytes", line_bytes), ("associativity", associativity)
        ):
            if not (_is_int(value) and value > 0):
                raise ValueError(f"{param} must be a positive integer")
        n_lines = capacity_bytes // line_bytes
        if n_lines < associativity:
            raise ValueError(f"{name}: capacity below one set")
        self.name = name
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.n_sets = max(1, n_lines // associativity)
        self._sets: dict[int, OrderedDict[int, None]] = {}
        self.stats = _LevelStats()

    def index_columns(self, addresses) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (set index, tag) columns for a batch of addresses.

        The integer arithmetic matches :meth:`access` element-for-element
        (``line = address // line_bytes``, ``set = line % n_sets``,
        ``tag = line // n_sets``), so array engines can precompute a
        whole trace's cache geometry in three numpy ops and share the
        exact lookup semantics of the scalar path.
        """
        line = np.asarray(addresses, dtype=np.int64) // self.line_bytes
        return line % self.n_sets, line // self.n_sets

    def access(self, address: int) -> bool:
        """Look up one address, allocating on miss; True on hit."""
        line = address // self.line_bytes
        set_index = line % self.n_sets
        tag = line // self.n_sets
        ways = self._sets.setdefault(set_index, OrderedDict())
        if tag in ways:
            ways.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(ways) >= self.associativity:
            ways.popitem(last=False)
        ways[tag] = None
        return False

    def flush(self) -> None:
        """Empty the cache, keeping statistics."""
        self._sets.clear()


class CacheSim:
    """A hierarchy of levels searched nearest-first.

    ``access`` returns the index of the level that hit (``len(levels)``
    means DRAM). Misses allocate in every level above the hit point
    (inclusive caching — the first-order model the analytic side
    assumes).
    """

    def __init__(self, levels: list[CacheLevel]):
        if not levels:
            raise ValueError("hierarchy needs at least one level")
        self.levels = levels
        self.dram_accesses = 0

    @classmethod
    def ehp_default(cls, n_cus: int = 320) -> "CacheSim":
        """The EHP's GPU-side hierarchy: per-CU L1 aggregated, a 16 MB
        LLC slice per chiplet aggregated into one logical LLC."""
        l1_total = n_cus * 16 * 1024
        llc_total = 8 * 16 * 1024 * 1024
        return cls(
            [
                CacheLevel("L1", l1_total, associativity=8),
                CacheLevel("LLC", llc_total, associativity=16),
            ]
        )

    def access(self, address: int) -> int:
        """Access through the hierarchy; returns hit-level index."""
        for i, level in enumerate(self.levels):
            if level.access(address):
                return i
        self.dram_accesses += 1
        return len(self.levels)

    def run_trace(self, addresses) -> dict[str, float]:
        """Stream a trace; returns per-level hit rates and DRAM share."""
        addresses = np.asarray(addresses, dtype=np.int64)
        for addr in addresses.tolist():
            self.access(addr)
        total = len(addresses)
        out = {
            level.name: level.stats.hit_rate for level in self.levels
        }
        out["dram_fraction"] = self.dram_accesses / total if total else 0.0
        return out
