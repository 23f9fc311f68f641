"""Cross-cutting performance layer.

* :mod:`repro.perf.evalcache` — shared, fingerprint-keyed in-memory
  memos in front of :meth:`repro.core.node.NodeModel.evaluate_grid` and
  :meth:`repro.sim.apu_sim.ApuSimulator.run`, so every (profile batch,
  design space, model) grid and every (sim config, trace, engine)
  simulation is computed once per process no matter how many drivers
  ask for it. The memory-system replays are not memoized: no driver
  repeats one.
* :mod:`repro.perf.pool` — a persistent :class:`ShardedPool` of worker
  processes fed from one FIFO task queue, the program's one fan-out:
  workers are spawned once and reused across calls.
* :mod:`repro.perf.parallel` — the experiment runner: one task per
  artifact, run on a caller's ``pool=`` :class:`ShardedPool`, or
  in-process without one.

``repro.perf.parallel`` is intentionally *not* imported here: it pulls
in the experiment drivers (and through them :mod:`repro.core.dse`,
which itself uses the cache), so importing it from the package root
would create an import cycle. Import it explicitly::

    from repro.perf.parallel import run_all_experiments

:mod:`repro.perf.pool` depends only on the observability layer, so its
names are re-exported here.
"""

from repro.perf.evalcache import (
    CacheStats,
    EvalCache,
    SimCache,
    cache_stats,
    clear_cache,
    default_cache,
    default_sim_cache,
    simulate_trace_cached,
)
from repro.perf.pool import PoolStats, PoolTask, ShardedPool

__all__ = [
    "CacheStats",
    "EvalCache",
    "PoolStats",
    "PoolTask",
    "ShardedPool",
    "SimCache",
    "cache_stats",
    "clear_cache",
    "default_cache",
    "default_sim_cache",
    "simulate_trace_cached",
]
