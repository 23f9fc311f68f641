"""Shared memoization of the evaluation-layer hot calls.

The evaluation drivers all re-evaluate the same handful of kernel
profiles on the same design grids with the same model parameters: the
full DSE alone is rerun by the Section V summary, Table II, the
reconfiguration governor and several examples. A single evaluation of a
fine grid costs hundreds of milliseconds, so the layer in front of it is
a plain keyed memo:

``(profile fingerprint, model fingerprint, grid fingerprint,
ext-fraction fingerprint, extra latency) -> NodeEvaluation``

Fingerprints are SHA-1 digests of the frozen dataclasses' ``repr`` (all
model inputs are frozen dataclasses of scalars, so their repr is a
faithful value encoding) and of the raw grid-array bytes. Two
:class:`~repro.core.node.NodeModel` instances with equal parameters
therefore share cache entries, and *any* parameter change — a different
``PowerParams``, an optimization applied, another external-memory
configuration — changes the fingerprint and misses cleanly.

The same scheme fronts the trace-driven APU simulator
(:class:`SimCache`): ``(sim-config fingerprint, trace fingerprint,
engine) -> ApuSimResult``, so calibration cross-check sweeps that replay
one kernel's trace against several engines/configs never re-simulate a
(config, trace) pair they have already measured.

The third front is the vectorized memory-system layer
(:class:`MemsysCache`): DRAM-cache, row-buffer, and page-migration
replays keyed by ``(geometry, address-stream fingerprint, engine)``, so
capacity sweeps that push the same 50k-address stream through a dozen
cache sizes only pay for each geometry once per process — or once
*ever* with spill enabled.

Every cache accepts an opt-in ``spill_dir``: computed entries are
pickled to ``<spill_dir>/<key-digest>.pkl`` (atomic tmp + rename), and a
memory miss probes the directory before recomputing, so cross-run
calibration sweeps start warm. Spill files carry a format version and
the full key; a corrupt file, a version bump, or a digest collision all
read back as a clean miss.

Cached :class:`~repro.core.node.NodeEvaluation` /
:class:`~repro.sim.apu_sim.ApuSimResult` objects are shared: treat their
arrays as read-only (the library's own consumers never mutate them).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.config import DesignSpace
from repro.core.node import GridEvaluation, NodeEvaluation, NodeModel
from repro.obs import metrics as _obs_metrics
from repro.memsys.dramcache import DramCache, DramCacheStats
from repro.memsys.manager import (
    FirstTouchPolicy,
    HotnessMigrationPolicy,
    MemoryManager,
)
from repro.memsys.rowbuffer import RowBufferSim, RowBufferStats
from repro.sim.apu_sim import ApuSimConfig, ApuSimResult, ApuSimulator
from repro.workloads.kernels import KernelProfile, ProfileBatch
from repro.workloads.traces import MemoryTrace

__all__ = [
    "CacheStats",
    "EvalCache",
    "SimCache",
    "MemsysCache",
    "SPILL_VERSION",
    "default_cache",
    "default_sim_cache",
    "default_memsys_cache",
    "evaluate_arrays_cached",
    "fingerprint_model",
    "fingerprint_profile",
    "fingerprint_array",
    "evaluate_grid_cached",
    "simulate_trace_cached",
    "fingerprint_batch",
    "fingerprint_trace",
    "fingerprint_sim_config",
    "fingerprint_addresses",
    "cache_stats",
    "clear_cache",
]

SPILL_VERSION = 1
"""On-disk spill format version; bumping it invalidates old spills."""

_SPILL_MISS = object()


@dataclass(frozen=True)
class CacheStats:
    """Counters exposed by :meth:`EvalCache.stats`."""

    hits: int = 0
    misses: int = 0
    entries: int = 0
    evictions: int = 0
    spill_hits: int = 0

    @property
    def requests(self) -> int:
        """Total lookups."""
        return self.hits + self.misses + self.spill_hits

    @property
    def hit_rate(self) -> float:
        """Hits (memory or spill) over lookups (0.0 when cold)."""
        if self.requests == 0:
            return 0.0
        return (self.hits + self.spill_hits) / self.requests

    @property
    def spill_hit_rate(self) -> float:
        """On-disk hits over lookups (0.0 when cold or spill-less)."""
        if self.requests == 0:
            return 0.0
        return self.spill_hits / self.requests

    def as_dict(self) -> dict:
        """JSON-ready counters plus the derived rates (what the run
        manifest embeds)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "evictions": self.evictions,
            "spill_hits": self.spill_hits,
            "requests": self.requests,
            "hit_rate": self.hit_rate,
            "spill_hit_rate": self.spill_hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"entries={self.entries}, evictions={self.evictions}, "
            f"spill_hits={self.spill_hits}, "
            f"hit_rate={self.hit_rate:.3f}, "
            f"spill_hit_rate={self.spill_hit_rate:.3f})"
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


def fingerprint_array(value) -> str:
    """Fingerprint of one design-point axis (scalar or array)."""
    if value is None:
        return "none"
    arr = np.ascontiguousarray(np.asarray(value, dtype=float))
    h = hashlib.sha1(str(arr.shape).encode())
    h.update(arr.tobytes())
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


def fingerprint_addresses(addresses, writes=None) -> str:
    """Value fingerprint of a raw address stream (plus optional write
    flags) — the memsys cache key component."""
    h = hashlib.sha1()
    for arr in (addresses, writes):
        if arr is None:
            h.update(b"none")
            continue
        arr = np.ascontiguousarray(np.asarray(arr))
        h.update(str((arr.shape, arr.dtype.str)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class _KeyedMemo:
    """Thread-safe LRU memo shared by the evaluation-layer caches.

    Subclasses build their own keys and computations; this base owns the
    entry table, the optional LRU bound, the hit/miss/eviction counters,
    and the optional on-disk spill.

    Parameters
    ----------
    maxsize:
        Optional LRU bound on cached values; ``None`` (default) keeps
        everything.
    spill_dir:
        Optional directory for pickled (key -> value) spill files. A
        memory miss probes the directory before recomputing, and every
        computed value is written back, so later runs pointed at the
        same directory start warm. The in-memory LRU bound does not
        apply to spilled files; :meth:`clear` leaves them on disk.

    Every lookup outcome is also published to the process-wide
    :mod:`repro.obs.metrics` registry under the class's
    ``metrics_prefix`` (``cache.eval.hits`` and friends), so DSE sweeps
    and manifests see cache behaviour without polling each instance.
    """

    metrics_prefix = "cache.keyed"
    """Registry namespace; subclasses override (``cache.eval`` etc.)."""

    def __init__(
        self, maxsize: int | None = None, spill_dir: str | None = None
    ):
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive or None")
        self.maxsize = maxsize
        self.spill_dir = None if spill_dir is None else os.fspath(spill_dir)
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._spill_hits = 0
        # Pre-resolved metric names: the lookup fast path must not pay
        # for string formatting.
        prefix = self.metrics_prefix
        self._metric_hits = prefix + ".hits"
        self._metric_misses = prefix + ".misses"
        self._metric_spill_hits = prefix + ".spill_hits"

    # ------------------------------------------------------------------
    # On-disk spill
    # ------------------------------------------------------------------
    def _spill_path(self, key: tuple) -> str:
        return os.path.join(self.spill_dir, _digest(repr(key)) + ".pkl")

    def _spill_load(self, key: tuple):
        """Probe the spill directory; returns the sentinel on any kind
        of failure (missing file, corrupt pickle, stale format version,
        digest collision) so callers fall through to a recompute."""
        try:
            with open(self._spill_path(key), "rb") as fh:
                payload = pickle.load(fh)
            if (
                isinstance(payload, dict)
                and payload.get("version") == SPILL_VERSION
                and payload.get("key") == key
            ):
                return payload["value"]
        except Exception:
            # Corrupt or truncated pickles raise a long tail of
            # exception types; every failure mode is just a cache miss.
            pass
        return _SPILL_MISS

    def _spill_store(self, key: tuple, value) -> None:
        """Atomically persist one entry (tmp file + rename); IO errors
        are swallowed — spill is an accelerator, never a correctness
        dependency."""
        path = self._spill_path(key)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(self.spill_dir, exist_ok=True)
            with open(tmp, "wb") as fh:
                pickle.dump(
                    {"version": SPILL_VERSION, "key": key, "value": value},
                    fh,
                )
            os.replace(tmp, path)
        except (OSError, pickle.PicklingError):
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _insert_locked(self, key: tuple, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if self.maxsize is not None:
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def _peek(self, key: tuple):
        """Non-computing probe: the cached value, or ``None``.

        Counts (and publishes) a hit when found — the serving layer's
        inline path is a real cache hit — but a miss counts nothing:
        the caller will route the request through a computing path
        whose own lookup records the miss, and double-counting would
        skew the hit rates the pool's affinity checks gate on. Probes
        memory first, then the spill directory.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                _obs_metrics.inc(self._metric_hits)
                return cached
        if self.spill_dir is not None:
            loaded = self._spill_load(key)
            if loaded is not _SPILL_MISS:
                with self._lock:
                    self._spill_hits += 1
                    self._insert_locked(key, loaded)
                _obs_metrics.inc(self._metric_spill_hits)
                return loaded
        return None

    def _seed(self, key: tuple, value) -> None:
        """Insert a value computed elsewhere (e.g. carved out of a
        merged serve batch) without touching the hit/miss counters.
        Spills like a computed entry so warm starts see it too."""
        if self.spill_dir is not None:
            self._spill_store(key, value)
        with self._lock:
            self._insert_locked(key, value)

    def _memoize(self, key: tuple, compute: Callable[[], object]):
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                _obs_metrics.inc(self._metric_hits)
                return cached
        if self.spill_dir is not None:
            loaded = self._spill_load(key)
            if loaded is not _SPILL_MISS:
                with self._lock:
                    self._spill_hits += 1
                    self._insert_locked(key, loaded)
                _obs_metrics.inc(self._metric_spill_hits)
                return loaded
        with self._lock:
            self._misses += 1
        _obs_metrics.inc(self._metric_misses)
        value = compute()
        if self.spill_dir is not None:
            self._spill_store(key, value)
        with self._lock:
            self._insert_locked(key, value)
        return value

    def stats(self) -> CacheStats:
        """Hit/miss/entry counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._entries),
                evictions=self._evictions,
                spill_hits=self._spill_hits,
            )

    def clear(self) -> None:
        """Drop every in-memory entry and reset the counters (spilled
        files, if any, stay on disk — that is what makes cross-run
        warm starts work)."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = 0
            self._spill_hits = 0


class EvalCache(_KeyedMemo):
    """Keyed memo fronting :meth:`NodeModel.evaluate_arrays`.

    The working set is one entry per distinct (profile, grid, model)
    triple, which the full experiment suite keeps in the dozens.
    """

    metrics_prefix = "cache.eval"

    def __init__(
        self, maxsize: int | None = None, spill_dir: str | None = None
    ):
        super().__init__(maxsize, spill_dir)
        # (object ids, model fp, space id, slab) -> (pins, grid key);
        # see grid_key().
        self._grid_key_memo: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    def _key(
        self,
        model: NodeModel,
        profile: KernelProfile,
        n_cus,
        freq,
        bandwidth,
        ext_fraction,
        extra_latency: float,
    ) -> tuple:
        return (
            fingerprint_profile(profile),
            fingerprint_model(model),
            fingerprint_array(n_cus),
            fingerprint_array(freq),
            fingerprint_array(bandwidth),
            fingerprint_array(ext_fraction),
            float(extra_latency),
        )

    def evaluate_arrays(
        self,
        model: NodeModel,
        profile: KernelProfile,
        n_cus,
        freq,
        bandwidth,
        *,
        ext_fraction=None,
        extra_latency: float = 0.0,
    ) -> NodeEvaluation:
        """Cached equivalent of ``model.evaluate_arrays(...)``."""
        key = self._key(
            model, profile, n_cus, freq, bandwidth, ext_fraction,
            extra_latency,
        )
        return self._memoize(
            key,
            lambda: model.evaluate_arrays(
                profile,
                n_cus,
                freq,
                bandwidth,
                ext_fraction=ext_fraction,
                extra_latency=extra_latency,
            ),
        )

    @staticmethod
    def _resolve_grid(
        profiles, space: DesignSpace, cu_lo: int, cu_hi: int | None
    ) -> tuple[ProfileBatch, DesignSpace]:
        """Normalize grid-call arguments: stack loose profiles into a
        batch, carve the CU slab out of *space*."""
        if isinstance(profiles, ProfileBatch):
            batch = profiles
        else:
            batch = ProfileBatch.from_profiles(profiles)
        if cu_lo != 0 or cu_hi is not None:
            import dataclasses

            sub = space.cu_counts[cu_lo:cu_hi]
            if not sub:
                raise ValueError(
                    f"empty CU slab [{cu_lo}:{cu_hi}] of {space.cu_counts}"
                )
            space = dataclasses.replace(space, cu_counts=sub)
        return batch, space

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
        self,
        model: NodeModel,
        profiles,
        space: DesignSpace,
        cu_lo: int = 0,
        cu_hi: int | None = None,
    ) -> GridEvaluation:
        """Cached equivalent of ``model.evaluate_grid(profiles, space)``.

        ``cu_lo``/``cu_hi`` select a CU-axis slab of *space* — the
        parallel sweep's unit of work — and key it independently: a
        whole-grid entry and its slabs never alias, but replaying the
        same (batch, model, slab) triple (as the pool's dedup and the
        experiment drivers do) hits. *profiles* may be a
        :class:`~repro.workloads.kernels.ProfileBatch` or a sequence of
        profiles.
        """
        batch, space = self._resolve_grid(profiles, space, cu_lo, cu_hi)
        key = self._grid_key(model, batch, space)
        return self._memoize(
            key, lambda: model.evaluate_grid(batch, space)
        )

    def peek_grid(
        self,
        model: NodeModel,
        profiles,
        space: DesignSpace,
        cu_lo: int = 0,
        cu_hi: int | None = None,
    ) -> GridEvaluation | None:
        """The cached grid for these arguments, or ``None`` — never
        computes. The serving layer's inline-answer probe."""
        batch, space = self._resolve_grid(profiles, space, cu_lo, cu_hi)
        return self._peek(self._grid_key(model, batch, space))

    def grid_key(
        self,
        model: NodeModel,
        profiles,
        space: DesignSpace,
        cu_lo: int = 0,
        cu_hi: int | None = None,
    ) -> tuple:
        """The opaque cache key ``peek_grid``/``seed_grid`` would use.

        Fingerprinting a batch is ~100x the cost of the lookup itself,
        so callers that probe the same (profiles, space) template
        repeatedly — the serving layer's inline path — compute the key
        once and replay it through :meth:`peek_grid_key`.

        Repeat calls with the *same objects* (profiles, space — frozen
        dataclasses, so identity implies equality) are memoized; the
        model is always re-fingerprinted, so in-place model mutation
        stays safe.
        """
        if isinstance(profiles, ProfileBatch):
            pin: object = profiles
            ids: tuple = (id(profiles),)
        else:
            profiles = list(profiles)
            pin = tuple(profiles)
            ids = tuple(map(id, profiles))
        memo_key = (ids, fingerprint_model(model), id(space), cu_lo, cu_hi)
        memo = self._grid_key_memo
        entry = memo.get(memo_key)
        if entry is not None:
            return entry[1]
        batch, sub = self._resolve_grid(profiles, space, cu_lo, cu_hi)
        key = self._grid_key(model, batch, sub)
        if len(memo) >= 4096:
            memo.clear()
        # The pinned objects keep every id() in memo_key from being
        # recycled while the entry lives.
        memo[memo_key] = ((pin, space), key)
        return key

    def peek_grid_key(self, key: tuple) -> GridEvaluation | None:
        """:meth:`peek_grid` by a precomputed :meth:`grid_key`."""
        return self._peek(key)

    def seed_grid(
        self,
        model: NodeModel,
        profiles,
        space: DesignSpace,
        value: GridEvaluation,
        cu_lo: int = 0,
        cu_hi: int | None = None,
    ) -> None:
        """Insert a grid computed elsewhere under these arguments' key.

        The serving layer carves per-request grids out of merged batch
        evaluations (bit-identical to evaluating them directly — the
        PR-6 composition identities) and seeds them here so the next
        identical request hits inline.
        """
        batch, space = self._resolve_grid(profiles, space, cu_lo, cu_hi)
        self._seed(self._grid_key(model, batch, space), value)

    def invalidate(
        self,
        profile: KernelProfile | None = None,
        model: NodeModel | None = None,
    ) -> int:
        """Explicitly drop entries for *profile* and/or *model*.

        With both ``None`` every entry is dropped (counters are kept —
        use :meth:`clear` to reset those too). Grid entries do not
        record individual profile fingerprints, so a profile-scoped
        invalidation conservatively drops every grid entry. Returns the
        number of evicted entries.
        """
        with self._lock:
            if profile is None and model is None:
                dropped = len(self._entries)
                self._entries.clear()
                return dropped
            pfp = None if profile is None else fingerprint_profile(profile)
            mfp = None if model is None else fingerprint_model(model)

            def doomed_key(k: tuple) -> bool:
                if k[0] == "grid":
                    return mfp is None or k[2] == mfp
                return (pfp is None or k[0] == pfp) and (
                    mfp is None or k[1] == mfp
                )

            doomed = [k for k in self._entries if doomed_key(k)]
            for k in doomed:
                del self._entries[k]
            return len(doomed)


_default_cache = EvalCache()


def default_cache() -> EvalCache:
    """The process-wide shared cache the library routes through."""
    return _default_cache


def evaluate_arrays_cached(
    model: NodeModel,
    profile: KernelProfile,
    n_cus,
    freq,
    bandwidth,
    *,
    ext_fraction=None,
    extra_latency: float = 0.0,
    cache: EvalCache | None = None,
) -> NodeEvaluation:
    """Module-level convenience over :meth:`EvalCache.evaluate_arrays`.

    ``cache=None`` uses the shared :func:`default_cache`.
    """
    cache = cache if cache is not None else _default_cache
    return cache.evaluate_arrays(
        model,
        profile,
        n_cus,
        freq,
        bandwidth,
        ext_fraction=ext_fraction,
        extra_latency=extra_latency,
    )


def evaluate_grid_cached(
    model: NodeModel,
    profiles,
    space: DesignSpace,
    cu_lo: int = 0,
    cu_hi: int | None = None,
    cache: EvalCache | None = None,
) -> GridEvaluation:
    """Module-level convenience over :meth:`EvalCache.evaluate_grid`.

    ``cache=None`` uses the shared :func:`default_cache`.
    """
    cache = cache if cache is not None else _default_cache
    return cache.evaluate_grid(model, profiles, space, cu_lo, cu_hi)


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


class MemsysCache(_KeyedMemo):
    """Keyed memo fronting the memory-system engines.

    Keys are ``(kind, geometry..., address-stream fingerprint, engine)``
    tuples; the three kinds cover the DRAM-cache, row-buffer, and
    page-migration replays the Fig. 8/9 experiment drivers run. As with
    :class:`SimCache`, both engines are cached independently so the
    oracle harness's deliberate double runs never alias.
    """

    metrics_prefix = "cache.memsys"

    def dram_stats(
        self,
        addresses,
        writes=None,
        *,
        capacity_bytes: float = 256.0e9,
        page_bytes: int = 4096,
        associativity: int = 8,
        engine: str = "array",
    ) -> DramCacheStats:
        """Cached ``DramCache(...).run_trace(addresses, writes)`` from a
        cold cache."""
        key = (
            "dram",
            float(capacity_bytes),
            int(page_bytes),
            int(associativity),
            fingerprint_addresses(addresses, writes),
            engine,
        )

        def compute() -> DramCacheStats:
            cache = DramCache(
                capacity_bytes, page_bytes, associativity, engine=engine
            )
            return cache.run_trace(addresses, writes)

        return self._memoize(key, compute)

    def rowbuffer_stats(
        self,
        addresses,
        *,
        n_banks: int = 128,
        row_bytes: int = 1024,
        channel_interleave_bytes: int = 256,
        engine: str = "array",
    ) -> RowBufferStats:
        """Cached ``RowBufferSim(...).run(addresses)`` from closed rows."""
        key = (
            "rowbuffer",
            int(n_banks),
            int(row_bytes),
            int(channel_interleave_bytes),
            fingerprint_addresses(addresses),
            engine,
        )

        def compute() -> RowBufferStats:
            sim = RowBufferSim(
                n_banks, row_bytes, channel_interleave_bytes, engine=engine
            )
            return sim.run(addresses)

        return self._memoize(key, compute)

    def manager_fractions(
        self,
        addresses,
        *,
        n_epochs: int = 4,
        capacity_bytes: float = 256.0e9,
        page_size: int = 4096,
        policy: str = "hotness",
        migration_limit: int | None = None,
        engine: str = "array",
    ) -> tuple[float, ...]:
        """Cached per-epoch in-package fractions: the address stream is
        split into *n_epochs* contiguous epochs and driven through a
        fresh :class:`~repro.memsys.manager.MemoryManager`."""
        if n_epochs <= 0:
            raise ValueError("n_epochs must be positive")
        if policy not in ("hotness", "first-touch"):
            raise ValueError(f"unknown policy {policy!r}")
        key = (
            "manager",
            int(n_epochs),
            float(capacity_bytes),
            int(page_size),
            policy,
            migration_limit,
            fingerprint_addresses(addresses),
            engine,
        )

        def compute() -> tuple[float, ...]:
            if policy == "hotness":
                pol = HotnessMigrationPolicy(migration_limit)
            else:
                pol = FirstTouchPolicy()
            manager = MemoryManager(
                capacity_bytes, pol, page_size, engine=engine
            )
            arr = np.asarray(addresses, dtype=np.int64)
            epochs = np.array_split(arr, n_epochs)
            return tuple(manager.run_batch(epochs))

        return self._memoize(key, compute)


_default_memsys_cache = MemsysCache()


def default_memsys_cache() -> MemsysCache:
    """The process-wide shared memory-system cache."""
    return _default_memsys_cache


def cache_stats() -> CacheStats:
    """Counters of the shared default cache."""
    return _default_cache.stats()


def clear_cache() -> None:
    """Reset the shared default cache (entries and counters)."""
    _default_cache.clear()
