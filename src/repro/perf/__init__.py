"""Cross-cutting performance layer.

* :mod:`repro.perf.pool` — a persistent :class:`ShardedPool` of worker
  processes fed from one FIFO task queue, the program's one fan-out:
  workers are spawned once and reused across calls.
* :mod:`repro.perf.parallel` — the experiment runner: one task per
  artifact, run on a caller's ``pool=`` :class:`ShardedPool`, or
  in-process without one.

The package imports neither, so loading one module loads only what
that module needs. Import each explicitly::

    from repro.perf.parallel import run_all_experiments
    from repro.perf.pool import ShardedPool
"""
