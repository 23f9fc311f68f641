"""Node-wide observability: metrics registry, span tracing, manifests.

Six modules, layered from always-on to opt-in:

* :mod:`repro.obs.metrics` — process-wide counters/gauges/timing
  histograms with mergeable snapshots; cheap enough that the hot layers
  publish into it unconditionally.
* :mod:`repro.obs.trace` — ``span()``/``trace()`` tracing: each span
  is one appended tuple, exported as Chrome trace-event JSON
  (Perfetto-loadable); no-op until a tracer is installed. Spans carry
  no ids: synchronous spans nest by time on their thread, and the
  serving layer links a request's path by its ticket seq.
* :mod:`repro.obs.manifest` — one-JSON-per-run manifests combining git
  revision, engine choices, cache counters, wall times, and the metrics
  snapshot (imported lazily: it reaches back into the instrumented
  layers, and eager import would cycle).
* :mod:`repro.obs.proc` — process-memory readings (RSS and peak RSS)
  published as gauges, per run manifest, per pool worker batch, and per
  sampler interval.
* :mod:`repro.obs.export` — Prometheus text formatting and the
  :class:`~repro.obs.export.PeriodicSampler` JSONL time-series export
  (``--metrics-export``).
* :mod:`repro.obs.report` — run reports (``python -m repro obs
  report``; imported lazily like the manifest module).
"""

from repro.obs import export, metrics, proc, trace
from repro.obs.export import PeriodicSampler
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    default_registry,
)
from repro.obs.trace import Tracer, active_tracer, span

__all__ = [
    "metrics",
    "proc",
    "trace",
    "export",
    "manifest",
    "report",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PeriodicSampler",
    "default_registry",
    "Tracer",
    "active_tracer",
    "span",
]


def __getattr__(name):
    if name in ("manifest", "report"):
        import importlib

        return importlib.import_module(f"repro.obs.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
