"""Fig. 8: performance impact of in-package DRAM miss rates.

For each application at the best-mean configuration, performance at
miss rates {0, 20, 40, 60, 80, 100}% (fraction of requests served by
external memory), normalized to the no-miss case. The paper reports
degradations from ~0% (MaxFlops) to as much as 75%, with LULESH showing
lower *bandwidth* sensitivity than CoMD because its irregular accesses
make it latency-bound.

:func:`run_fig8` sweeps the paper's nominal miss-rate grid through the
analytic model. :func:`run_fig8_measured` instead *measures* each
application's miss rates by replaying a profile-matched synthetic trace
through the hardware DRAM-cache model at several capacities, then feeds
those measured rates into the same performance model — the
trace-grounded version of the figure.

Each (application, capacity) pair is one cold replay of a 50k-access
stream through :mod:`repro.memsys.dramcache`: 8 applications × 6
capacities = 48 replays, each computing its exact LRU hits. One
:func:`~repro.memsys.dramcache.replay_caches` call per application
advances its six cold caches over the trace, so they share one page
pass: the grouping of accesses by page, which depends only on the
stream. The capacities do not nest (each changes the set count, not
only the ways), so each still gets its own per-geometry replay, and
that replay needs stack distances only in the sets that hold more
pages than ways. Nothing is memoized: no sweep repeats a (stream,
geometry) pair. Capacity fractions must be finite and positive.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.config import PAPER_BEST_MEAN
from repro.experiments.runner import ExperimentResult, all_profiles
from repro.memsys.dramcache import DramCache, replay_caches
from repro.perfmodel.machine import MachineParams
from repro.perfmodel.mlm import miss_rate_sweep
from repro.util.tables import TextTable
from repro.workloads.kernels import KernelProfile
from repro.workloads.traces import TraceGenerator

__all__ = [
    "run_fig8",
    "run_fig8_measured",
    "measured_miss_rates",
    "MISS_RATES",
    "CAPACITY_FRACTIONS",
]

MISS_RATES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

CAPACITY_FRACTIONS = (0.02, 0.05, 0.1, 0.25, 0.5, 1.0)
"""DRAM-cache capacities swept by the measured variant, as fractions of
the trace footprint."""

TRACE_ACCESSES = 50_000
TRACE_SEED = 42


def run_fig8(
    miss_rates: Sequence[float] = MISS_RATES,
    machine: MachineParams | None = None,
) -> ExperimentResult:
    """Regenerate Fig. 8's per-application bar groups."""
    cfg = PAPER_BEST_MEAN
    columns = ["Application"] + [f"{int(m * 100)}%" for m in miss_rates]
    table = TextTable(columns)
    data = {}
    for profile in all_profiles():
        rel = miss_rate_sweep(
            profile,
            cfg.n_cus,
            cfg.gpu_freq,
            cfg.bandwidth,
            miss_rates=miss_rates,
            machine=machine,
        )
        rel_pct = [float(r) * 100.0 for r in rel]
        table.add_row([profile.name] + rel_pct)
        data[profile.name] = rel_pct
    return ExperimentResult(
        experiment_id="fig8",
        title="Performance impact of miss rates in the in-package DRAM",
        rendered=table.render(),
        data=data,
        notes=(
            "values are % of the all-in-package performance; paper: "
            "MaxFlops flat, others degrade 7-75%"
        ),
    )


def measured_miss_rates(
    profile: KernelProfile,
    capacity_fractions: Sequence[float] = CAPACITY_FRACTIONS,
    *,
    n_accesses: int = TRACE_ACCESSES,
    seed: int = TRACE_SEED,
    page_bytes: int = 4096,
    associativity: int = 8,
) -> list[float]:
    """Miss rates measured by replaying the profile's synthetic trace
    through a cold DRAM-cache model at each capacity fraction, all
    capacities in one :func:`~repro.memsys.dramcache.replay_caches`
    call."""
    trace = TraceGenerator(profile, seed=seed).generate(n_accesses)
    floor = float(page_bytes * associativity)
    caches = []
    for fraction in capacity_fractions:
        if not math.isfinite(fraction) or fraction <= 0:
            raise ValueError("capacity fractions must be finite and positive")
        capacity = max(floor, fraction * trace.footprint_bytes)
        caches.append(DramCache(capacity, page_bytes, associativity))
    replay_caches(caches, trace.addresses, trace.is_write)
    return [1.0 - cache.stats.hit_rate for cache in caches]


def run_fig8_measured(
    capacity_fractions: Sequence[float] = CAPACITY_FRACTIONS,
    machine: MachineParams | None = None,
) -> ExperimentResult:
    """Trace-grounded Fig. 8: per-application performance at the miss
    rates the DRAM-cache model actually produces at each capacity."""
    cfg = PAPER_BEST_MEAN
    columns = ["Application"] + [
        f"cap {fraction:g}x" for fraction in capacity_fractions
    ]
    table = TextTable(columns)
    data: dict[str, dict[str, list[float]]] = {}
    for profile in all_profiles():
        rates = measured_miss_rates(profile, capacity_fractions)
        rel = miss_rate_sweep(
            profile,
            cfg.n_cus,
            cfg.gpu_freq,
            cfg.bandwidth,
            miss_rates=rates,
            machine=machine,
        )
        rel_pct = [float(r) * 100.0 for r in rel]
        table.add_row([profile.name] + rel_pct)
        data[profile.name] = {"miss_rates": rates, "relative_pct": rel_pct}
    return ExperimentResult(
        experiment_id="fig8-measured",
        title=(
            "Performance at DRAM-cache miss rates measured from "
            "profile-matched traces"
        ),
        rendered=table.render(),
        data=data,
        notes=(
            "columns are cache capacity as a fraction of the trace "
            "footprint; values are % of all-in-package performance at "
            "the measured miss rate"
        ),
    )
