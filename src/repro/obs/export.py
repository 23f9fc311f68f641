"""Live telemetry export: Prometheus text format and interval sampling.

Two export shapes for the same :class:`~repro.obs.metrics.MetricsSnapshot`:

* :func:`prometheus_text` renders a snapshot in the Prometheus
  text-exposition format (``# TYPE`` lines, ``_total`` counters,
  cumulative ``_bucket{le=...}`` histograms) with stable metric names:
  dots become underscores under a fixed ``repro_`` prefix, so
  ``serve.batch_seconds`` is always ``repro_serve_batch_seconds``.
  :func:`parse_prometheus_text` is its exact inverse (numbers are
  emitted as ``repr`` so floats round-trip bit-exactly) — the
  hypothesis tests format → parse → compare snapshots.
* :class:`PeriodicSampler` appends *interval diffs* of the registry as
  JSONL — one line per interval holding only what changed since the
  previous line (counter deltas, histogram deltas, current gauges) —
  which is what ``--metrics-export`` wires up on ``python -m repro``,
  ``serve`` and ``fleet``. Each sample refreshes the process memory
  gauges first (:func:`repro.obs.proc.publish_memory_gauges`), so RSS
  is a time series rather than a single manifest reading. On
  :meth:`~PeriodicSampler.stop` the final *cumulative* snapshot is
  written next to the JSONL as a ``.prom`` file.

The sampler's clock is injected for deterministic tests; in production
it runs on a daemon thread (:meth:`~PeriodicSampler.start`), whatever
the run: experiments, ``fleet`` and the ``serve`` benchmark alike.
``python -m repro obs report`` renders either export shape
(:mod:`repro.obs.report`).
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from typing import Callable

from repro.obs import metrics as _metrics
from repro.obs.metrics import HistogramSnapshot, MetricsSnapshot
from repro.obs.proc import publish_memory_gauges

__all__ = [
    "PROM_PREFIX",
    "prometheus_text",
    "parse_prometheus_text",
    "write_prometheus",
    "PeriodicSampler",
]

PROM_PREFIX = "repro"
"""Namespace every exported metric name lives under."""

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
)
_LE_RE = re.compile(r'le="([^"]*)"')


def _prom_name(name: str, prefix: str) -> str:
    """Stable Prometheus-safe name: ``<prefix>_<dots-to-underscores>``."""
    return f"{prefix}_{_NAME_RE.sub('_', name)}"


def _fmt(value: float) -> str:
    """repr-exact float rendering (parses back bit-identically)."""
    return repr(float(value))


def prometheus_text(
    snapshot: MetricsSnapshot, prefix: str = PROM_PREFIX
) -> str:
    """Render *snapshot* in the Prometheus text-exposition format.

    Counters get a ``_total`` suffix, histograms expand to cumulative
    ``_bucket{le=...}`` series plus ``_sum``/``_count``, gauges export
    as-is. Families are sorted by name, so output is deterministic.
    """
    lines: list[str] = []
    for name in sorted(snapshot.counters):
        pname = f"{_prom_name(name, prefix)}_total"
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {int(snapshot.counters[name])}")
    for name in sorted(snapshot.gauges):
        pname = _prom_name(name, prefix)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_fmt(snapshot.gauges[name])}")
    for name in sorted(snapshot.histograms):
        hist = snapshot.histograms[name]
        pname = _prom_name(name, prefix)
        lines.append(f"# TYPE {pname} histogram")
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            lines.append(
                f'{pname}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
            )
        cumulative += hist.counts[-1]
        lines.append(f'{pname}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{pname}_sum {_fmt(hist.total)}")
        lines.append(f"{pname}_count {int(hist.count)}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(
    text: str, prefix: str = PROM_PREFIX
) -> MetricsSnapshot:
    """Parse :func:`prometheus_text` output back into a snapshot.

    The inverse transform up to name mangling: dots were flattened to
    underscores on the way out, so round-trips are exact only for names
    already free of characters outside ``[a-zA-Z0-9_:]`` (the property
    tests generate such names; operational consumers never parse back).
    """
    types: dict[str, str] = {}
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    hist_parts: dict[str, dict] = {}
    strip = f"{prefix}_"

    def base_name(pname: str) -> str:
        return pname[len(strip):] if pname.startswith(strip) else pname

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable sample line: {line!r}")
        pname = match.group("name")
        value = match.group("value")
        labels = match.group("labels") or ""
        for family, suffix in (
            (pname[: -len("_bucket")], "_bucket"),
            (pname[: -len("_sum")], "_sum"),
            (pname[: -len("_count")], "_count"),
        ):
            if (
                pname.endswith(suffix)
                and types.get(family) == "histogram"
            ):
                part = hist_parts.setdefault(
                    base_name(family), {"buckets": [], "sum": 0.0, "count": 0}
                )
                if suffix == "_bucket":
                    le_match = _LE_RE.search(labels)
                    if le_match is None:
                        raise ValueError(f"bucket without le: {line!r}")
                    part["buckets"].append((le_match.group(1), int(value)))
                elif suffix == "_sum":
                    part["sum"] = float(value)
                else:
                    part["count"] = int(value)
                break
        else:
            if types.get(pname) == "counter" and pname.endswith("_total"):
                counters[base_name(pname[: -len("_total")])] = int(value)
            elif types.get(pname) == "gauge":
                gauges[base_name(pname)] = float(value)
            else:
                raise ValueError(f"sample without TYPE: {line!r}")

    histograms: dict[str, HistogramSnapshot] = {}
    for name, part in hist_parts.items():
        finite = [
            (float(le), cum) for le, cum in part["buckets"] if le != "+Inf"
        ]
        finite.sort(key=lambda pair: pair[0])
        inf_cum = next(
            (cum for le, cum in part["buckets"] if le == "+Inf"),
            part["count"],
        )
        bounds = tuple(le for le, _ in finite)
        counts = []
        previous = 0
        for _, cum in finite:
            counts.append(cum - previous)
            previous = cum
        counts.append(inf_cum - previous)
        histograms[name] = HistogramSnapshot(
            bounds=bounds,
            counts=tuple(counts),
            total=part["sum"],
            count=part["count"],
        )
    return MetricsSnapshot(
        counters=counters, gauges=gauges, histograms=histograms
    )


def write_prometheus(
    path: str,
    snapshot: MetricsSnapshot | None = None,
    prefix: str = PROM_PREFIX,
) -> None:
    """Write *snapshot* (default: the process registry) to *path*."""
    if snapshot is None:
        snapshot = _metrics.snapshot()
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(prometheus_text(snapshot, prefix=prefix))


class PeriodicSampler:
    """Appends registry interval-diffs to a JSONL time-series file.

    Each :meth:`sample` refreshes the process memory gauges, snapshots
    the registry, and writes one JSON line holding the *diff* against
    the previous sample (counter/histogram deltas; gauges are current
    readings) plus timing fields::

        {"t": <wall unix>, "elapsed_s": ..., "interval_s": ...,
         "sample": <n>, "counters": {...}, "gauges": {...},
         "histograms": {...}}

    The baseline is the snapshot taken at construction, so the series
    covers exactly the sampler's lifetime. :meth:`stop` takes a final
    sample and writes the last cumulative snapshot next to the JSONL as
    ``<path stem>.prom`` (Prometheus text format).

    Drive it one of two ways: call :meth:`sample` directly (tests,
    with an injected clock), or :meth:`start`/:meth:`stop` a daemon
    thread.
    """

    def __init__(
        self,
        path: str,
        *,
        interval_s: float = 1.0,
        registry: "_metrics.MetricsRegistry | None" = None,
        clock: Callable[[], float] | None = None,
        wall_clock: Callable[[], float] | None = None,
        sample_proc: bool = True,
        prefix: str = PROM_PREFIX,
    ):
        # Event.wait(nan) returns at once: a NaN interval would
        # busy-loop the thread writing samples.
        if not 0 < interval_s < math.inf:
            raise ValueError(
                f"interval_s must be finite and positive, got {interval_s!r}"
            )
        self.path = str(path)
        self.interval_s = float(interval_s)
        self.prefix = prefix
        self._registry = registry
        self._clock = clock if clock is not None else time.monotonic
        self._wall = wall_clock if wall_clock is not None else time.time
        self._sample_proc = sample_proc
        self._lock = threading.Lock()
        self._t0 = self._clock()
        self._last = self._snapshot()
        self._last_t = self._t0
        self._n = 0
        self._fh = None
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._closed = False

    @property
    def prometheus_path(self) -> str:
        """Where :meth:`stop` writes the final cumulative snapshot."""
        return os.path.splitext(self.path)[0] + ".prom"

    def _snapshot(self) -> MetricsSnapshot:
        if self._registry is None:
            return _metrics.snapshot()
        return self._registry.snapshot()

    def _publish_proc(self) -> None:
        publish_memory_gauges(self._registry)

    # ------------------------------------------------------------------
    def sample(self) -> dict | None:
        """Take one interval sample; returns the record written (or
        ``None`` after :meth:`stop`)."""
        with self._lock:
            if self._closed:
                return None
            if self._sample_proc:
                self._publish_proc()
            snap = self._snapshot()
            now = self._clock()
            delta = snap.diff(self._last)
            self._n += 1
            record = {
                "t": self._wall(),
                "elapsed_s": now - self._t0,
                "interval_s": now - self._last_t,
                "sample": self._n,
            }
            record.update(delta.as_dict())
            self._last = snap
            self._last_t = now
            if self._fh is None:
                parent = os.path.dirname(os.path.abspath(self.path))
                os.makedirs(parent, exist_ok=True)
                self._fh = open(self.path, "w", encoding="utf-8")
            self._fh.write(
                json.dumps(record, separators=(",", ":"), default=str)
            )
            self._fh.write("\n")
            self._fh.flush()
            return record

    # ------------------------------------------------------------------
    def start(self) -> "PeriodicSampler":
        """Sample every ``interval_s`` on a daemon thread until
        :meth:`stop`."""
        if self._thread is not None or self._closed:
            return self

        def loop() -> None:
            while not self._stop_event.wait(self.interval_s):
                self.sample()

        self._thread = threading.Thread(
            target=loop, name="repro-metrics-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, final: bool = True) -> None:
        """Stop the thread (if any), take one last sample, write the
        cumulative ``.prom`` snapshot, and close. Idempotent."""
        if self._thread is not None:
            self._stop_event.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._closed:
            return
        if final:
            self.sample()
        with self._lock:
            self._closed = True
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            write_prometheus(
                self.prometheus_path, self._last, prefix=self.prefix
            )

    def __enter__(self) -> "PeriodicSampler":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
