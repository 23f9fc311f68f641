"""Run manifests: one JSON per experiment run recording what ran.

A manifest captures everything needed to attribute and reproduce a
result after the process is gone: the git revision, the default model's
value fingerprint, which engine the design-space exploration runs, the
evaluation memo's hit/miss counters (``cache.eval.*``, published by
the serving layer), wall times, and the full metrics-registry
snapshot. ``python -m repro ... --metrics-out
manifest.json`` and ``benchmarks/check_perf.py --metrics-out`` both
write one; CI uploads them as workflow artifacts so perf trajectories
stay inspectable per commit.

Imports of the model layers happen inside :func:`build_manifest` and
:func:`engine_choices`: the instrumented hot modules import
:mod:`repro.obs.metrics` at import time, so this module staying lazy
keeps the package cycle-free.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import Callable, Mapping

from repro.obs import metrics as _metrics

__all__ = [
    "MANIFEST_VERSION",
    "git_describe",
    "engine_choices",
    "build_manifest",
    "write_manifest",
]

MANIFEST_VERSION = 2
"""Schema version stamped into every manifest; version 2 dropped the
``sections`` key."""


def git_describe(cwd: str | None = None) -> str | None:
    """``git describe --always --dirty``, or ``None`` outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def engine_choices() -> dict:
    """Default and available engines of the one run-time engine choice,
    the design-space exploration's. Every other fast path has a single
    implementation and its oracle is a named reference method."""
    from repro.core import dse

    # The DSE's default is process-wide state (python -m repro --engine
    # routes through set_default_engine), so report the live value.
    return {
        "core.dse": {
            "default": dse.default_engine(),
            "available": list(dse.ENGINES),
        }
    }


def build_manifest(
    *,
    command: str | None = None,
    experiments: list[str] | None = None,
    wall_times: Mapping[str, float] | None = None,
    registry: "_metrics.MetricsRegistry | None" = None,
    extra: Mapping | None = None,
    clock: Callable[[], float] = time.time,
) -> dict:
    """Assemble the manifest dict (see module docstring for contents).

    ``registry=None`` snapshots the process-wide default registry;
    *clock* is injected so tests get deterministic timestamps.
    """
    import numpy as np

    from repro.core.node import NodeModel
    from repro.obs.proc import publish_memory_gauges

    registry = registry if registry is not None else _metrics.default_registry()
    # Stamp the parent's memory footprint right before the snapshot so
    # every manifest carries proc.rss_bytes / proc.peak_rss_bytes
    # alongside any pool.worker<N>.* gauges the workers reported.
    publish_memory_gauges(registry)
    snapshot = registry.snapshot()
    hits = snapshot.counter("cache.eval.hits")
    misses = snapshot.counter("cache.eval.misses")
    model = NodeModel()
    model_repr = repr((model.machine, model.power_params, model.ext_config))
    return {
        "manifest_version": MANIFEST_VERSION,
        "created_unix": float(clock()),
        "git": git_describe(),
        "command": command,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "default_model_fingerprint": hashlib.sha1(
            model_repr.encode()
        ).hexdigest(),
        "engines": engine_choices(),
        "experiments": list(experiments) if experiments is not None else None,
        "wall_times_s": dict(wall_times) if wall_times is not None else {},
        "caches": {
            "eval": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            }
        },
        "metrics": snapshot.as_dict(),
        "extra": dict(extra) if extra is not None else {},
    }


def write_manifest(path: str, **kwargs) -> dict:
    """Build a manifest and write it to *path*; returns the dict.

    Accepts :func:`build_manifest`'s keyword arguments. Parent
    directories are created as needed.
    """
    manifest = build_manifest(**kwargs)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=False, default=str)
        fh.write("\n")
    return manifest
