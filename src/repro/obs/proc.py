"""Process memory readings published as metrics gauges.

The observability layer's counters and histograms accumulate; memory is
a point-in-time reading, so it rides the registry's *gauge* channel
(last-writer-wins on merge). Two readings are exposed:

``proc.rss_bytes``
    The process's current resident set, read from ``/proc/self/statm``
    where available.
``proc.peak_rss_bytes``
    The high-water mark, from ``resource.getrusage`` (``ru_maxrss``),
    or the current reading where that is larger: Linux folds the live
    resident set into ``ru_maxrss`` only now and then, so a fresh
    ``statm`` reading can exceed it.

:func:`publish_memory_gauges` is called in two places: run-manifest
construction (so every manifest records the parent process's footprint)
and the :class:`~repro.perf.pool.ShardedPool` worker loop, whose
readings the parent republishes as ``pool.worker<N>.rss_bytes`` /
``pool.worker<N>.peak_rss_bytes`` — per-worker memory crosses the
process boundary through the same snapshot merge the cache counters
use.

Every reader degrades to ``None`` on platforms without the underlying
source; gauges are simply not published rather than guessed.
"""

from __future__ import annotations

import os
import sys

from repro.obs import metrics as _metrics

__all__ = ["rss_bytes", "peak_rss_bytes", "publish_memory_gauges"]


def rss_bytes() -> int | None:
    """Current resident set size in bytes, or ``None`` if unreadable."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            resident_pages = int(fh.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


def peak_rss_bytes() -> int | None:
    """Peak resident set size in bytes, or ``None`` if unreadable."""
    try:
        import resource
    except ImportError:
        return None
    try:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (OSError, ValueError):
        return None
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def publish_memory_gauges(
    registry: "_metrics.MetricsRegistry | None" = None,
    prefix: str = "proc",
) -> dict[str, float]:
    """Set ``<prefix>.rss_bytes`` / ``<prefix>.peak_rss_bytes`` gauges.

    ``registry=None`` goes through the module-level helpers (and so
    respects the global enable flag); an explicit registry is written
    directly. Returns the readings that were published.
    """
    readings: dict[str, float] = {}
    rss = rss_bytes()
    if rss is not None:
        readings[f"{prefix}.rss_bytes"] = float(rss)
    peak = peak_rss_bytes()
    if peak is not None:
        # The peak is never below the current reading.
        readings[f"{prefix}.peak_rss_bytes"] = float(max(peak, rss or 0))
    for name, value in readings.items():
        if registry is None:
            _metrics.set_gauge(name, value)
        else:
            registry.set_gauge(name, value)
    return readings
