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

The package imports none of them, so loading one module loads only
what that module needs (the evaluation memo does not pull in the pool
and :mod:`multiprocessing`). Import each explicitly::

    from repro.perf.evalcache import default_cache
    from repro.perf.parallel import run_all_experiments
"""
