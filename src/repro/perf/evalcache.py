"""Shared memoization of the evaluation layer's grid evaluations.

The evaluation drivers all re-evaluate the same handful of kernel
profiles on the same design grids with the same model parameters: the
full DSE alone is rerun by the Section V summary, Table II, the
reconfiguration governor and several examples. A single evaluation of a
fine grid costs hundreds of milliseconds, so the layer in front of it is
a plain keyed memo:

``(profile-batch fingerprint, model fingerprint, design-space
fingerprint) -> GridEvaluation``

Fingerprints are SHA-1 digests of the frozen dataclasses' ``repr`` (all
model inputs are frozen dataclasses of scalars, so their repr is a
faithful value encoding) and of the raw profile-column bytes. Two
:class:`~repro.core.node.NodeModel` instances with equal parameters
therefore share cache entries, and *any* parameter change — a different
``PowerParams``, an optimization applied, another external-memory
configuration — changes the fingerprint and misses cleanly.

The memo is a locked ``dict`` that keeps every entry for the life of
the process, with hit and miss counters. ``dse.explore`` computes
through it (:meth:`EvalCache.evaluate_grid`); the serving layer derives
a request's key once (:meth:`EvalCache.grid_key`), answers repeats
inline from it (:meth:`EvalCache.peek`) and stores the answers it
computed elsewhere under it (:meth:`EvalCache.seed`). Single-point
evaluations (``NodeModel.evaluate_arrays``) and trace simulations are
not memoized: no paper artifact repeats one.

Cached :class:`~repro.core.node.GridEvaluation` objects are shared:
treat their arrays as read-only (the library's own consumers never
mutate them).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.config import DesignSpace
from repro.core.node import GridEvaluation, NodeModel
from repro.obs import metrics as _obs_metrics
from repro.workloads.kernels import KernelProfile, ProfileBatch

__all__ = [
    "CacheStats",
    "EvalCache",
    "default_cache",
    "fingerprint_model",
    "fingerprint_profile",
    "fingerprint_batch",
    "cache_stats",
    "clear_cache",
]

@dataclass(frozen=True)
class CacheStats:
    """Counters exposed by :meth:`EvalCache.stats`."""

    hits: int = 0
    misses: int = 0
    entries: int = 0

    @property
    def requests(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when cold)."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    def as_dict(self) -> dict:
        """JSON-ready counters plus the derived rates (what the run
        manifest embeds)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "requests": self.requests,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"entries={self.entries}, hit_rate={self.hit_rate:.3f})"
        )


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def fingerprint_model(model: NodeModel) -> str:
    """Value fingerprint of (MachineParams, PowerParams, ExtConfig)."""
    return _digest(
        repr((model.machine, model.power_params, model.ext_config))
    )


def fingerprint_profile(profile: KernelProfile) -> str:
    """Value fingerprint of one kernel profile (all fields, not just
    the name — overridden copies must not collide)."""
    return _digest(repr(profile))


def fingerprint_batch(batch: ProfileBatch) -> str:
    """Value fingerprint of a whole profile batch: names plus the raw
    bytes of every stacked column, so two batches collide only when
    they stack the same profiles in the same order."""
    h = hashlib.sha1(repr(batch.names).encode())
    for fname in ProfileBatch.field_names():
        h.update(np.ascontiguousarray(getattr(batch, fname)).tobytes())
    return h.hexdigest()


def _as_batch(profiles) -> ProfileBatch:
    """Stack loose profiles into a batch (a batch passes through)."""
    if isinstance(profiles, ProfileBatch):
        return profiles
    return ProfileBatch.from_profiles(profiles)


def _grid_key(
    model: NodeModel, batch: ProfileBatch, space: DesignSpace
) -> tuple:
    return (
        fingerprint_batch(batch),
        fingerprint_model(model),
        _digest(repr(space)),
    )


class EvalCache:
    """Thread-safe keyed memo fronting :meth:`NodeModel.evaluate_grid`.

    The working set is one entry per distinct (profile batch, design
    space, model) triple, which the full experiment suite keeps in the
    dozens. Every lookup outcome is also published to the process-wide
    :mod:`repro.obs.metrics` registry as ``cache.eval.hits`` /
    ``cache.eval.misses``, so DSE sweeps and manifests see cache
    behaviour without polling each instance.
    """

    def __init__(self):
        self._entries: dict[tuple, GridEvaluation] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def evaluate_grid(
        self, model: NodeModel, profiles, space: DesignSpace
    ) -> GridEvaluation:
        """Cached equivalent of ``model.evaluate_grid(profiles, space)``.

        *profiles* may be a :class:`~repro.workloads.kernels.
        ProfileBatch` or a sequence of profiles.
        """
        batch = _as_batch(profiles)
        key = _grid_key(model, batch, space)
        grid = self.peek(key)
        if grid is None:
            with self._lock:
                self._misses += 1
            _obs_metrics.inc("cache.eval.misses")
            grid = model.evaluate_grid(batch, space)
            self.seed(key, grid)
        return grid

    def grid_key(
        self, model: NodeModel, profiles, space: DesignSpace
    ) -> tuple:
        """The opaque key :meth:`evaluate_grid` uses for these
        arguments, for :meth:`peek` and :meth:`seed`.

        Fingerprinting a batch is ~100x the cost of the lookup itself,
        so a caller that probes the same (profiles, space) template
        repeatedly — the serving layer — derives the key once and
        replays it.
        """
        return _grid_key(model, _as_batch(profiles), space)

    def peek(self, key: tuple) -> GridEvaluation | None:
        """The grid cached under *key*, or ``None`` — never computes.

        Counts (and publishes) a hit when found — the serving layer's
        inline answer is a real cache hit — but a miss counts nothing:
        the caller computes the answer elsewhere, and a miss that
        computes nothing here would only skew the hit rate.
        """
        with self._lock:
            grid = self._entries.get(key)
            if grid is not None:
                self._hits += 1
                _obs_metrics.inc("cache.eval.hits")
            return grid

    def seed(self, key: tuple, grid: GridEvaluation) -> None:
        """Store a grid computed elsewhere under *key* (a
        :meth:`grid_key`) without touching the hit/miss counters.

        The serving layer carves per-request grids out of merged batch
        evaluations (bit-identical to evaluating them directly: grid
        composition is exact along every axis) and seeds them here so
        the next identical request hits inline.
        """
        with self._lock:
            self._entries[key] = grid

    def stats(self) -> CacheStats:
        """Hit/miss/entry counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._entries),
            )

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0


_default_cache = EvalCache()


def default_cache() -> EvalCache:
    """The process-wide shared cache the library routes through."""
    return _default_cache


def cache_stats() -> CacheStats:
    """Counters of the shared default cache."""
    return _default_cache.stats()


def clear_cache() -> None:
    """Reset the shared default cache (entries and counters)."""
    _default_cache.clear()
