"""Shared memoization of the evaluation-layer hot calls.

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

The same scheme fronts the trace-driven APU simulator
(:class:`SimCache`): ``(sim-config fingerprint, trace fingerprint,
engine) -> ApuSimResult``, so calibration cross-check sweeps that replay
one kernel's trace against several engines/configs never re-simulate a
(config, trace) pair they have already measured.

Both are the same in-memory memo: a locked ``dict`` that keeps every
entry for the life of the process, with hit and miss counters.
Single-point evaluations (``NodeModel.evaluate_arrays``) are not
memoized: no paper artifact repeats one.

Cached :class:`~repro.core.node.GridEvaluation` /
:class:`~repro.sim.apu_sim.ApuSimResult` objects are shared: treat their
arrays as read-only (the library's own consumers never mutate them).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.config import DesignSpace
from repro.core.node import GridEvaluation, NodeModel
from repro.obs import metrics as _obs_metrics
from repro.sim.apu_sim import ApuSimConfig, ApuSimResult, ApuSimulator
from repro.workloads.kernels import KernelProfile, ProfileBatch
from repro.workloads.traces import MemoryTrace

__all__ = [
    "CacheStats",
    "EvalCache",
    "SimCache",
    "default_cache",
    "default_sim_cache",
    "fingerprint_model",
    "fingerprint_profile",
    "simulate_trace_cached",
    "fingerprint_batch",
    "fingerprint_trace",
    "fingerprint_sim_config",
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


def fingerprint_trace(trace: MemoryTrace) -> str:
    """Value fingerprint of a synthetic memory trace (raw array bytes
    plus the declared footprint)."""
    h = hashlib.sha1()
    for arr in (trace.addresses, trace.is_write, trace.flops_between):
        arr = np.ascontiguousarray(arr)
        h.update(str((arr.shape, arr.dtype.str)).encode())
        h.update(arr.tobytes())
    h.update(repr(float(trace.footprint_bytes)).encode())
    return h.hexdigest()


def fingerprint_sim_config(config: ApuSimConfig) -> str:
    """Value fingerprint of one simulator configuration (frozen
    dataclass of scalars, so its repr is a faithful value encoding)."""
    return _digest(repr(config))


class _KeyedMemo:
    """Thread-safe memo shared by the evaluation-layer caches.

    Subclasses build their own keys and computations; this base owns the
    entry table (a plain ``dict`` under one lock, kept for the life of
    the process) and the hit/miss counters.

    Every lookup outcome is also published to the process-wide
    :mod:`repro.obs.metrics` registry under the class's
    ``metrics_prefix`` (``cache.eval.hits`` and friends), so DSE sweeps
    and manifests see cache behaviour without polling each instance.
    """

    metrics_prefix = "cache.keyed"
    """Registry namespace; subclasses override (``cache.eval`` etc.)."""

    def __init__(self):
        self._entries: dict[tuple, object] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        # Pre-resolved metric names: the lookup fast path must not pay
        # for string formatting.
        self._metric_hits = self.metrics_prefix + ".hits"
        self._metric_misses = self.metrics_prefix + ".misses"

    def _peek(self, key: tuple):
        """Non-computing probe: the cached value, or ``None``.

        Counts (and publishes) a hit when found — the serving layer's
        inline path is a real cache hit — but a miss counts nothing:
        the caller will route the request through a computing path
        whose own lookup records the miss, and double-counting would
        skew the hit rates.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._hits += 1
                _obs_metrics.inc(self._metric_hits)
            return cached

    def _seed(self, key: tuple, value) -> None:
        """Insert a value computed elsewhere (e.g. carved out of a
        merged serve batch) without touching the hit/miss counters."""
        with self._lock:
            self._entries[key] = value

    def _memoize(self, key: tuple, compute: Callable[[], object]):
        cached = self._peek(key)
        if cached is not None:
            return cached
        with self._lock:
            self._misses += 1
        _obs_metrics.inc(self._metric_misses)
        value = compute()
        self._seed(key, value)
        return value

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


class EvalCache(_KeyedMemo):
    """Keyed memo fronting :meth:`NodeModel.evaluate_grid`.

    The working set is one entry per distinct (profile batch, design
    space, model) triple, which the full experiment suite keeps in the
    dozens.
    """

    metrics_prefix = "cache.eval"

    @staticmethod
    def _as_batch(profiles) -> ProfileBatch:
        """Stack loose profiles into a batch (a batch passes through)."""
        if isinstance(profiles, ProfileBatch):
            return profiles
        return ProfileBatch.from_profiles(profiles)

    @staticmethod
    def _grid_key(
        model: NodeModel, batch: ProfileBatch, space: DesignSpace
    ) -> tuple:
        return (
            "grid",
            fingerprint_batch(batch),
            fingerprint_model(model),
            _digest(repr(space)),
        )

    def evaluate_grid(
        self, model: NodeModel, profiles, space: DesignSpace
    ) -> GridEvaluation:
        """Cached equivalent of ``model.evaluate_grid(profiles, space)``.

        *profiles* may be a :class:`~repro.workloads.kernels.
        ProfileBatch` or a sequence of profiles.
        """
        batch = self._as_batch(profiles)
        key = self._grid_key(model, batch, space)
        return self._memoize(
            key, lambda: model.evaluate_grid(batch, space)
        )

    def grid_key(
        self, model: NodeModel, profiles, space: DesignSpace
    ) -> tuple:
        """The opaque cache key :meth:`evaluate_grid` and
        :meth:`seed_grid` use for these arguments.

        Fingerprinting a batch is ~100x the cost of the lookup itself,
        so callers that probe the same (profiles, space) template
        repeatedly — the serving layer's inline path — compute the key
        once and replay it through :meth:`peek_grid_key`.
        """
        return self._grid_key(model, self._as_batch(profiles), space)

    def peek_grid_key(self, key: tuple) -> GridEvaluation | None:
        """The cached grid under a precomputed :meth:`grid_key`, or
        ``None`` — never computes. The serving layer's inline-answer
        probe."""
        return self._peek(key)

    def seed_grid(
        self,
        model: NodeModel,
        profiles,
        space: DesignSpace,
        value: GridEvaluation,
    ) -> None:
        """Insert a grid computed elsewhere under these arguments' key.

        The serving layer carves per-request grids out of merged batch
        evaluations (bit-identical to evaluating them directly: grid
        composition is exact along every axis) and seeds them here so
        the next identical request hits inline.
        """
        self._seed(self.grid_key(model, profiles, space), value)


_default_cache = EvalCache()


def default_cache() -> EvalCache:
    """The process-wide shared cache the library routes through."""
    return _default_cache


class SimCache(_KeyedMemo):
    """Keyed memo fronting :meth:`ApuSimulator.run`.

    Key: ``(sim-config fingerprint, trace fingerprint, engine)``. Both
    engines are cached independently — the oracle harness deliberately
    runs the same (config, trace) pair through each engine, and the
    entries must not alias.
    """

    metrics_prefix = "cache.sim"

    @staticmethod
    def _run_key(
        trace: MemoryTrace, simulator: ApuSimulator
    ) -> tuple:
        return (
            fingerprint_sim_config(simulator.config),
            fingerprint_trace(trace),
            simulator.engine,
        )

    def run(
        self,
        trace: MemoryTrace,
        config: ApuSimConfig | None = None,
        engine: str | None = None,
    ) -> ApuSimResult:
        """Cached equivalent of ``ApuSimulator(config, engine).run(trace)``."""
        simulator = ApuSimulator(config, engine=engine or "array")
        key = self._run_key(trace, simulator)
        return self._memoize(key, lambda: simulator.run(trace))

    def peek_run(
        self,
        trace: MemoryTrace,
        config: ApuSimConfig | None = None,
        engine: str | None = None,
    ) -> ApuSimResult | None:
        """The cached simulation for these arguments, or ``None`` —
        never simulates (the serving layer's inline probe)."""
        simulator = ApuSimulator(config, engine=engine or "array")
        return self._peek(self._run_key(trace, simulator))

    def seed_run(
        self,
        trace: MemoryTrace,
        value: ApuSimResult,
        config: ApuSimConfig | None = None,
        engine: str | None = None,
    ) -> None:
        """Insert a simulation computed elsewhere (a pool worker) under
        these arguments' key, so the next identical request hits
        :meth:`peek_run` inline."""
        simulator = ApuSimulator(config, engine=engine or "array")
        self._seed(self._run_key(trace, simulator), value)


_default_sim_cache = SimCache()


def default_sim_cache() -> SimCache:
    """The process-wide shared simulation cache."""
    return _default_sim_cache


def simulate_trace_cached(
    trace: MemoryTrace,
    config: ApuSimConfig | None = None,
    engine: str | None = None,
    cache: SimCache | None = None,
) -> ApuSimResult:
    """Module-level convenience over :meth:`SimCache.run`.

    ``cache=None`` uses the shared :func:`default_sim_cache`.
    """
    cache = cache if cache is not None else _default_sim_cache
    return cache.run(trace, config=config, engine=engine)


def cache_stats() -> CacheStats:
    """Counters of the shared default cache."""
    return _default_cache.stats()


def clear_cache() -> None:
    """Reset the shared default cache (entries and counters)."""
    _default_cache.clear()
