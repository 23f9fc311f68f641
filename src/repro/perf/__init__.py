"""Cross-cutting performance layer.

* :mod:`repro.perf.pool` — a persistent :class:`ShardedPool` of worker
  processes fed from one FIFO task queue, the program's one fan-out:
  workers are spawned once and reused across calls. It runs the serving
  layer's simulation and experiment requests; the CLI's experiment runs
  stay in-process.

The package does not import it, so importing the package loads no
worker machinery. Import it explicitly::

    from repro.perf.pool import ShardedPool
"""
