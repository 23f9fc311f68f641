"""Process-wide metrics: counters, gauges, timing histograms.

The registry is the always-on half of the observability layer: the hot
layers (:mod:`repro.sim.apu_sim`, the memsys engines, the NoC and
thermal solvers, the serving layer's answer memo) publish *per-run*
counters and timings into the process-wide default registry, so any
sweep can be asked afterwards where its time went and which caches
actually hit — without enabling anything up front.

Design constraints, in order:

* **Cheap enough to be always on.** Instrumentation happens at run/
  batch granularity (one handful of dict updates per simulator run, not
  per trace row), and the module-level helpers check a single flag
  before touching the registry. ``benchmarks/check_perf.py`` gates the
  end-to-end overhead at <= 5% on the 50k calibration trace
  (``check_obs_overhead``).
* **Mergeable across processes.** :meth:`MetricsRegistry.snapshot`
  returns a plain-data :class:`MetricsSnapshot` that pickles cleanly
  and supports ``merge`` (sum counters and histogram buckets) and
  ``diff`` (subtract an earlier snapshot), which is how
  :class:`~repro.perf.pool.ShardedPool` workers report back and the
  parent aggregates.
* **Fixed-bucket histograms.** Timings land in log-spaced fixed buckets
  (:data:`DEFAULT_BUCKETS`), so merging never has to re-bin and the
  snapshot size is constant.

Counters and gauges are plain name -> number maps; dotted names
(``"sim.apu.runs"``, ``"cache.eval.hits"``) are a convention, not a
structure the registry interprets.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, Mapping

__all__ = [
    "DEFAULT_BUCKETS",
    "HistogramSnapshot",
    "MetricsSnapshot",
    "MetricsRegistry",
    "default_registry",
    "metrics_enabled",
    "set_metrics_enabled",
    "disabled",
    "inc",
    "set_gauge",
    "observe",
    "timed",
    "snapshot",
]

DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)
"""Upper bounds (seconds) of the fixed timing buckets; one overflow
bucket rides after the last bound."""


@dataclass(frozen=True)
class HistogramSnapshot:
    """Frozen fixed-bucket histogram state.

    ``counts`` has ``len(bounds) + 1`` entries: ``counts[i]`` holds
    observations ``v <= bounds[i]``, and the final entry is the overflow
    bucket.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    total: float
    count: int

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Conservative quantile estimate from the fixed buckets.

        Returns the upper bound of the bucket the *q*-th observation
        falls in — an over-estimate by at most one bucket width, the
        safe side for deadline math. The overflow bucket reports
        ``inf``; an empty histogram reports 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for bound, count in zip(self.bounds, self.counts):
            seen += count
            if seen >= rank:
                return bound
        return float("inf")

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Bucket-wise sum; both sides must share bucket bounds."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            total=self.total + other.total,
            count=self.count + other.count,
        )

    def diff(self, earlier: "HistogramSnapshot") -> "HistogramSnapshot":
        """Bucket-wise subtraction of an *earlier* snapshot of the same
        histogram."""
        if self.bounds != earlier.bounds:
            raise ValueError("cannot diff histograms with different buckets")
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a - b for a, b in zip(self.counts, earlier.counts)),
            total=self.total - earlier.total,
            count=self.count - earlier.count,
        )

    def as_dict(self) -> dict:
        """JSON-ready plain-dict form."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
            "mean": self.mean,
        }


def _merge_maps(a: Mapping[str, float], b: Mapping[str, float]) -> dict:
    out = dict(a)
    for name, value in b.items():
        out[name] = out.get(name, 0) + value
    return out


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen, picklable view of a registry at one instant.

    This is the unit the process boundary moves: workers snapshot their
    registries, the parent merges the snapshots. ``merge`` sums counters
    and histogram buckets; gauges are last-writer-wins (the right-hand
    operand's value survives a name collision, since summing point-in-
    time readings is meaningless).
    """

    counters: Mapping[str, int] = field(default_factory=dict)
    gauges: Mapping[str, float] = field(default_factory=dict)
    histograms: Mapping[str, HistogramSnapshot] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        """The merge identity."""
        return cls()

    def counter(self, name: str, default: int = 0) -> int:
        """One counter's value (``default`` when never incremented)."""
        return self.counters.get(name, default)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two snapshots (e.g. from two worker processes)."""
        hists = dict(self.histograms)
        for name, h in other.histograms.items():
            hists[name] = hists[name].merge(h) if name in hists else h
        return MetricsSnapshot(
            counters=_merge_maps(self.counters, other.counters),
            gauges={**self.gauges, **other.gauges},
            histograms=hists,
        )

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """This snapshot minus an *earlier* one from the same registry
        (gauges keep their current values — they are readings, not
        accumulations)."""
        counters = {
            name: value - earlier.counters.get(name, 0)
            for name, value in self.counters.items()
        }
        counters = {n: v for n, v in counters.items() if v}
        hists = {}
        for name, h in self.histograms.items():
            if name in earlier.histograms:
                h = h.diff(earlier.histograms[name])
            if h.count:
                hists[name] = h
        return MetricsSnapshot(
            counters=counters, gauges=dict(self.gauges), histograms=hists
        )

    def as_dict(self) -> dict:
        """JSON-ready plain-dict form (manifest payload)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: h.as_dict()
                for name, h in sorted(self.histograms.items())
            },
        }


class MetricsRegistry:
    """Thread-safe counter/gauge/histogram store.

    Parameters
    ----------
    buckets:
        Upper bounds of the timing histogram buckets, ascending. All
        histograms in one registry share them, which is what keeps
        snapshots mergeable without re-binning.
    clock:
        Zero-argument monotonic-seconds callable used by :meth:`timed`;
        defaults to :func:`time.perf_counter`. Injectable so tests can
        assert exact durations.
    """

    def __init__(
        self,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        clock: Callable[[], float] | None = None,
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError("buckets must be ascending and non-empty")
        self.buckets = bounds
        self._clock = clock or perf_counter
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        # name -> [bucket counts (len+1), total, count]
        self._hists: dict[str, list] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, value: int = 1) -> None:
        """Add *value* to a counter (created at zero on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Record a point-in-time reading."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Add one observation (seconds, typically) to a histogram."""
        value = float(value)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = [[0] * (len(self.buckets) + 1), 0.0, 0]
                self._hists[name] = hist
            hist[0][idx] += 1
            hist[1] += value
            hist[2] += 1

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Time a block into histogram *name* (wall perf_counter)."""
        t0 = self._clock()
        try:
            yield
        finally:
            self.observe(name, self._clock() - t0)

    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Frozen copy of the current state (picklable, mergeable)."""
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    name: HistogramSnapshot(
                        bounds=self.buckets,
                        counts=tuple(h[0]),
                        total=h[1],
                        count=h[2],
                    )
                    for name, h in self._hists.items()
                },
            )

    def clear(self) -> None:
        """Drop every counter, gauge, and histogram."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()


_default_registry = MetricsRegistry()
_enabled = True


def default_registry() -> MetricsRegistry:
    """The process-wide registry all built-in instrumentation targets."""
    return _default_registry


def metrics_enabled() -> bool:
    """Whether the module-level helpers currently record anything."""
    return _enabled


def set_metrics_enabled(flag: bool) -> bool:
    """Turn the module-level fast path on/off; returns the old value."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


@contextmanager
def disabled() -> Iterator[None]:
    """Temporarily silence the module-level helpers (the un-instrumented
    baseline the overhead gate measures against)."""
    previous = set_metrics_enabled(False)
    try:
        yield
    finally:
        set_metrics_enabled(previous)


# ----------------------------------------------------------------------
# Module-level fast path: one flag check before any work. This is what
# the instrumented hot layers call.
# ----------------------------------------------------------------------
def inc(name: str, value: int = 1) -> None:
    """Increment a default-registry counter (no-op when disabled)."""
    if _enabled:
        _default_registry.inc(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a default-registry gauge (no-op when disabled)."""
    if _enabled:
        _default_registry.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Observe into a default-registry histogram (no-op when disabled)."""
    if _enabled:
        _default_registry.observe(name, value)


@contextmanager
def timed(name: str) -> Iterator[None]:
    """Time a block into the default registry (no-op when disabled)."""
    if not _enabled:
        yield
        return
    t0 = perf_counter()
    try:
        yield
    finally:
        _default_registry.observe(name, perf_counter() - t0)


def snapshot() -> MetricsSnapshot:
    """Snapshot of the default registry."""
    return _default_registry.snapshot()
