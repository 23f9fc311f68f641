"""Run manifests: one JSON per experiment run recording what ran.

A manifest captures everything needed to attribute and reproduce a
result after the process is gone: the git revision, the default model's
value fingerprint, which engines the simulators default to, every
shared evaluation cache's hit/miss/spill counters, wall times, and the
full metrics-registry snapshot. ``python -m repro ... --metrics-out
manifest.json`` and ``benchmarks/check_perf.py --metrics-out`` both
write one; CI uploads them as workflow artifacts so perf trajectories
stay inspectable per commit.

Imports of the model/cache layers happen inside the builder functions:
the instrumented hot modules import :mod:`repro.obs.metrics` at import
time, so this module staying lazy keeps the package cycle-free.
"""

from __future__ import annotations

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
    "cache_stats",
    "register_section",
    "unregister_section",
    "build_manifest",
    "write_manifest",
]

MANIFEST_VERSION = 1
"""Schema version stamped into every manifest."""

_sections: dict[str, Callable[[], Mapping]] = {}


def register_section(name: str, provider: Callable[[], Mapping]) -> None:
    """Register a live *provider* whose dict is embedded (under
    ``sections[name]``) in every manifest built while it is registered.

    Long-lived subsystems use this to report their state at manifest
    time — the serving layer registers a ``serve`` section while an
    :class:`~repro.serve.service.EvalService` is open. Re-registering a
    name replaces the previous provider.
    """
    _sections[name] = provider


def unregister_section(name: str) -> None:
    """Remove a registered section provider (missing names are fine)."""
    _sections.pop(name, None)


def _collect_sections() -> dict:
    out = {}
    for name, provider in list(_sections.items()):
        try:
            out[name] = dict(provider())
        except Exception as exc:  # a broken provider must not kill a run
            out[name] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


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
    """Default and available engines of every dual-engine subsystem."""
    from repro.core import dse, exascale
    from repro.fleet import link
    from repro.memsys import dramcache, manager, rowbuffer
    from repro.sim import apu_sim

    subsystems = {
        "sim.apu_sim": apu_sim.ENGINES,
        "memsys.rowbuffer": rowbuffer.ENGINES,
        "memsys.dramcache": dramcache.ENGINES,
        "memsys.manager": manager.ENGINES,
        "core.exascale.cu_sweep": exascale.CU_SWEEP_ENGINES,
        "fleet.link": link.LINK_ENGINES,
    }
    choices = {
        name: {"default": engines[0], "available": list(engines)}
        for name, engines in subsystems.items()
    }
    # The DSE's default is process-wide state (python -m repro --engine
    # routes through set_default_engine), so report the live value.
    choices["core.dse"] = {
        "default": dse.default_engine(),
        "available": list(dse.ENGINES),
    }
    return choices


def cache_stats() -> dict:
    """Counters of the three shared default caches, as plain dicts."""
    from repro.perf.evalcache import (
        default_cache,
        default_memsys_cache,
        default_sim_cache,
    )

    return {
        "eval": default_cache().stats().as_dict(),
        "sim": default_sim_cache().stats().as_dict(),
        "memsys": default_memsys_cache().stats().as_dict(),
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
    from repro.perf.evalcache import fingerprint_model

    registry = registry if registry is not None else _metrics.default_registry()
    # Stamp the parent's memory footprint right before the snapshot so
    # every manifest carries proc.rss_bytes / proc.peak_rss_bytes
    # alongside any pool.worker<N>.* gauges the workers reported.
    publish_memory_gauges(registry)
    return {
        "manifest_version": MANIFEST_VERSION,
        "created_unix": float(clock()),
        "git": git_describe(),
        "command": command,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "default_model_fingerprint": fingerprint_model(NodeModel()),
        "engines": engine_choices(),
        "experiments": list(experiments) if experiments is not None else None,
        "wall_times_s": dict(wall_times) if wall_times is not None else {},
        "caches": cache_stats(),
        "metrics": registry.snapshot().as_dict(),
        "sections": _collect_sections(),
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
