"""Cross-cutting performance layer.

* :mod:`repro.perf.evalcache` — a shared, fingerprint-keyed in-memory
  memo in front of :meth:`repro.core.node.NodeModel.evaluate_grid`, so
  every (profile batch, design space, model) grid is computed once per
  process no matter how many drivers ask for it. Trace simulations and
  memory-system replays are not memoized: no driver repeats one.
* :mod:`repro.perf.pool` — a persistent :class:`ShardedPool` of worker
  processes fed from one FIFO task queue, the program's one fan-out:
  workers are spawned once and reused across calls.
* :mod:`repro.perf.parallel` — the experiment runner: one task per
  artifact, run on a caller's ``pool=`` :class:`ShardedPool`, or
  in-process without one.

The package imports none of them, so loading one module loads only
what that module needs (the evaluation memo does not pull in the pool
and :mod:`multiprocessing`). Import each explicitly::

    from repro.perf.evalcache import default_cache
    from repro.perf.parallel import run_all_experiments
"""
