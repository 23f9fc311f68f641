"""Benchmarks for the fleet layer (PR 8).

Times the two fleet sweep paths: the serial per-point estimate loop
(the oracle and the contrast case) and a cold sharded pool run.
Measured shard-scaling efficiency (cold 1-shard vs 2-shard wall clock)
rides along in ``extra_info`` so the compacted benchmark JSON artifact
records it per run. The bit-identity, task-count and restart
assertions live in ``benchmarks/check_perf.py check_fleet``.
"""

import time

from repro.core.node import NodeModel
from repro.fleet.spec import synthetic_fleet
from repro.fleet.sweep import fleet_sweep, fleet_sweep_serial
from repro.perf.pool import ShardedPool

SPEC = synthetic_fleet(n_nodes=1000, n_groups=6, seed=0)
CUS = tuple(range(192, 385, 16))
MODEL = NodeModel()


def test_bench_fleet_serial_oracle(benchmark):
    """Serial per-point estimate loop over the whole fleet."""
    benchmark.pedantic(
        fleet_sweep_serial,
        args=(SPEC, CUS, MODEL),
        rounds=5,
        iterations=1,
    )


def test_bench_fleet_cold_pool_scaling(benchmark):
    """Cold sharded run, plus measured 1-vs-2 shard scaling efficiency.

    The timed section is the 2-shard cold run; one cold 1-shard run is
    measured outside the timer and the wall-clock scaling efficiency
    ``t1 / (2 * t2)`` is recorded in ``extra_info`` (reported, not
    gated — CI wall clocks are noisy).
    """

    def cold_run(shards):
        with ShardedPool(shards) as pool:
            fleet_sweep(SPEC, CUS, MODEL, pool=pool)

    t0 = time.perf_counter()
    cold_run(1)
    t_one = time.perf_counter() - t0

    result = benchmark.pedantic(
        cold_run, args=(2,), rounds=3, iterations=1
    )
    del result
    t_two = benchmark.stats.stats.min
    benchmark.extra_info["cold_1shard_s"] = t_one
    benchmark.extra_info["scaling_efficiency_1_to_2"] = (
        t_one / (2.0 * t_two) if t_two > 0 else 0.0
    )
