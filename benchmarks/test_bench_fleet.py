"""Benchmarks for the fleet layer.

Times the two fleet sweep paths on one 1000-node fleet: the serial
per-point estimate loop (the oracle and the contrast case) and the
in-process CU-axis sweep. The bit-identity and speedup assertions live
in ``benchmarks/check_perf.py check_fleet``.
"""

from repro.core.node import NodeModel
from repro.fleet.spec import synthetic_fleet
from repro.fleet.sweep import fleet_sweep, fleet_sweep_serial

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


def test_bench_fleet_cu_axis_sweep(benchmark):
    """One in-process CU-axis pass per (group, profile) series."""
    benchmark.pedantic(
        fleet_sweep,
        args=(SPEC, CUS, MODEL),
        rounds=10,
        iterations=1,
    )
