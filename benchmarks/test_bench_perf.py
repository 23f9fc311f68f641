"""Benchmarks for the PR-1 performance layer's hot paths.

These time the fast paths directly (repeat thermal solve against a
cached factorization, batched back-substitution, the integer-route NoC
loop, the full-suite experiment run) so the recorded
``BENCH_*.json`` trajectory tracks them PR over PR. The speedup *ratio*
assertions against the seed implementations live in
``benchmarks/check_perf.py``.
"""

import numpy as np

from repro.experiments.registry import EXPERIMENTS
from repro.memsys.dramcache import DramCache
from repro.memsys.manager import HotnessMigrationPolicy, MemoryManager
from repro.memsys.rowbuffer import RowBufferSim
from repro.noc.simulator import NocSimulator, SimMessage
from repro.sim.apu_sim import ApuSimulator
from repro.thermal.grid import ThermalGrid
from repro.workloads.calibration import default_calibration_trace
from repro.workloads.catalog import APPLICATIONS

GRID_NX = GRID_NY = 132


def _hot_grid():
    grid = ThermalGrid(66.0, 22.0, nx=GRID_NX, ny=GRID_NY)
    rng = np.random.default_rng(0)
    maps = rng.random((grid.stack.n_layers, grid.ny, grid.nx))
    grid.solve(maps)  # build the modal operator outside the timed region
    return grid, maps


def test_bench_thermal_repeat_solve(benchmark):
    """Repeat steady-state solve on a 132x132 grid (cached modal operator)."""
    grid, maps = _hot_grid()
    benchmark(grid.solve, maps)


def test_bench_thermal_solve_many(benchmark):
    """Batched solve of 20 power maps against one modal operator."""
    grid, maps = _hot_grid()
    batch = np.stack([maps * (1.0 + 0.01 * k) for k in range(20)])
    benchmark.pedantic(grid.solve_many, args=(batch,), rounds=3, iterations=1)


def _noc_messages(n=100_000):
    rng = np.random.default_rng(1)
    nodes = [f"gpu{i}" for i in range(8)] + [f"dram{i}" for i in range(8)]
    src = rng.integers(0, len(nodes), size=n)
    dst = (src + 1 + rng.integers(0, len(nodes) - 1, size=n)) % len(nodes)
    return [
        SimMessage(nodes[s], nodes[d], 4096.0, k * 1e-9)
        for k, (s, d) in enumerate(zip(src, dst))
    ]


def test_bench_noc_100k(benchmark):
    """100k-message store-and-forward run over the EHP topology."""
    msgs = _noc_messages()
    benchmark.pedantic(
        lambda: NocSimulator().run(msgs), rounds=3, iterations=1
    )


def test_bench_apu_sim_array_50k(benchmark):
    """Array fast-path simulation of the 50k-access calibration trace."""
    trace = default_calibration_trace()
    sim = ApuSimulator()
    benchmark.pedantic(sim.run, args=(trace,), rounds=3, iterations=1)


def test_bench_apu_sim_event_50k(benchmark):
    """Event-driven oracle on the same trace (tracks the ratio)."""
    trace = default_calibration_trace()
    sim = ApuSimulator()
    benchmark.pedantic(
        sim.run_reference, args=(trace,), rounds=2, iterations=1
    )


def test_bench_apu_sim_batch(benchmark):
    """run_batch over the eight Table I applications' traces."""
    from repro.workloads.traces import TraceGenerator

    traces = [
        TraceGenerator(p, seed=42).generate(10_000)
        for p in APPLICATIONS.values()
    ]
    sim = ApuSimulator()
    benchmark.pedantic(sim.run_batch, args=(traces,), rounds=2, iterations=1)


def _memsys_replay_params(n_accesses):
    trace = default_calibration_trace(n_accesses=n_accesses)
    footprint = trace.footprint_bytes
    capacities = [
        max(4096.0 * 8, f * footprint)
        for f in (0.02, 0.05, 0.1, 0.25, 0.5, 1.0)
    ]
    unique_pages = int(np.unique(trace.addresses // 4096).size)
    manager_capacity = max(4096.0, unique_pages // 5 * 4096.0)
    return trace, capacities, manager_capacity


def _memsys_replay(trace, capacities, manager_capacity, engine):
    addrs, writes = trace.addresses, trace.is_write
    epochs = np.array_split(addrs, 4)
    if engine == "array":
        RowBufferSim().run(addrs)
        for capacity in capacities:
            DramCache(capacity, 4096, 8).run_trace(addrs, writes)
        MemoryManager(
            manager_capacity, HotnessMigrationPolicy(), 4096
        ).run_batch(epochs)
        return
    # The scalar references: the per-unit access/epoch methods.
    rb = RowBufferSim()
    for addr in addrs.tolist():
        rb.access(addr)
    for capacity in capacities:
        cache = DramCache(capacity, 4096, 8)
        for addr, w in zip(addrs.tolist(), writes.tolist()):
            cache.access(addr, w)
    manager = MemoryManager(manager_capacity, HotnessMigrationPolicy(), 4096)
    for epoch in epochs:
        manager.epoch(epoch)


def test_bench_memsys_array_50k(benchmark):
    """Array fast-path memsys replay of the 50k-address calibration trace
    (row buffer + 6-capacity DRAM-cache sweep + 4 migration epochs)."""
    trace, capacities, manager_capacity = _memsys_replay_params(50_000)
    benchmark.pedantic(
        _memsys_replay,
        args=(trace, capacities, manager_capacity, "array"),
        rounds=3,
        iterations=1,
    )


def test_bench_memsys_event_10k(benchmark):
    """Scalar oracle on a 10k-address replay (tracks the ratio;
    the scalar manager is quadratic under eviction pressure, so the
    full 50k stream is left to check_perf's one-shot timing)."""
    trace, capacities, manager_capacity = _memsys_replay_params(10_000)
    benchmark.pedantic(
        _memsys_replay,
        args=(trace, capacities, manager_capacity, "event"),
        rounds=2,
        iterations=1,
    )


def test_bench_repro_all_serial(benchmark):
    """Every figure and table, serial, in-process."""

    def run_all():
        return {name: run() for name, run in EXPERIMENTS.items()}

    benchmark.pedantic(run_all, rounds=1, iterations=1)
