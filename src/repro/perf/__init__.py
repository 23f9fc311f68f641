"""Cross-cutting performance layer.

* :mod:`repro.perf.evalcache` — shared, fingerprint-keyed memos in
  front of :meth:`repro.core.node.NodeModel.evaluate_arrays` and
  :meth:`repro.sim.apu_sim.ApuSimulator.run`, so every (profile, design
  grid, model) combination and every (sim config, trace, engine)
  simulation is computed once no matter how many drivers ask for it.
* :mod:`repro.perf.pool` — a persistent :class:`ShardedPool` of worker
  processes with cache-affinity scheduling, the program's one fan-out:
  workers are spawned once and reused across sweeps, and stable shard
  routing keeps each worker's warm cache entries owned by that worker.
* :mod:`repro.perf.parallel` — the experiment runner and the
  tensor-slab design-space exploration; each builds one task list and
  runs it on a caller's ``pool=`` :class:`ShardedPool`, or in-process
  without one.

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
    evaluate_arrays_cached,
    simulate_trace_cached,
)
from repro.perf.pool import (
    PoolStats,
    PoolTask,
    ShardedPool,
    stable_shard,
)

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
    "evaluate_arrays_cached",
    "simulate_trace_cached",
    "stable_shard",
]
