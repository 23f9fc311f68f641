"""Benchmarks for the transient thermal layer (PR 10).

Times the paths the ``check_thermal_transient`` gate constrains on the
Fig. 10-scale grid: modal backward-Euler stepping, the per-step
sparse-solve oracle, lockstep multi-scenario stepping, the one-time
per-mode ``(C/dt + G)`` pivots a dt change pays, and one full
closed-loop governed schedule. Steps/sec and the governed/uncontrolled peak
temperatures ride along in ``extra_info`` so the compacted
BENCH_pr10.json artifact records them per run. The >=10x, convergence,
bit-identity, and under-the-limit assertions live in
``benchmarks/check_perf.py check_thermal_transient``.
"""

import numpy as np

from repro.core.node import NodeModel
from repro.core.thermal_governor import ThermalGovernor, ThermalPhase
from repro.thermal.analysis import ThermalModel
from repro.thermal.bench import HOT_CONFIG
from repro.thermal.transient import TransientSolver
from repro.workloads.catalog import get_application

DT = 0.01
MODEL = NodeModel()
THERMAL = ThermalModel()
MAXFLOPS = get_application("MaxFlops")
COMD = get_application("CoMD")
MAPS = THERMAL.build_power_maps(MODEL.evaluate(MAXFLOPS, HOT_CONFIG).power)


def _stepper(step, n_steps: int):
    initial = TransientSolver(THERMAL.grid, dt=DT).initial_temps()

    def run():
        temps = initial
        for _ in range(n_steps):
            temps = step(temps, MAPS, DT)
        return temps

    return run


def test_bench_transient_factored_steps(benchmark):
    """100 modal steps against the pivots cached for DT."""
    THERMAL.grid._factor(DT)
    run = _stepper(THERMAL.grid.step_transient, 100)
    benchmark.pedantic(run, rounds=5, iterations=1)
    benchmark.extra_info["steps_per_s"] = 100.0 / benchmark.stats["min"]


def test_bench_transient_oracle_steps(benchmark):
    """5 sparse-solve-per-step oracle steps (the seed-equivalent cost)."""
    run = _stepper(THERMAL.grid.step_transient_reference, 5)
    benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["steps_per_s"] = 5.0 / benchmark.stats["min"]


def test_bench_transient_factorization(benchmark):
    """The one-time per-mode ``(C/dt + G)`` pivots a dt change pays."""

    def factorize():
        THERMAL.grid._pivots.pop(DT, None)
        THERMAL.grid._factor(DT)

    benchmark.pedantic(factorize, rounds=5, iterations=1)


def test_bench_transient_lockstep_batch(benchmark):
    """8 scenarios x 50 steps through one batched modal solve each."""
    solver = TransientSolver(THERMAL.grid, dt=DT)
    batch = np.stack([MAPS * s for s in np.linspace(0.3, 1.0, 8)])
    THERMAL.grid._factor(DT)
    benchmark.pedantic(
        solver.run_many, args=(batch, 50), rounds=5, iterations=1
    )
    benchmark.extra_info["scenario_steps_per_s"] = (
        8 * 50.0 / benchmark.stats["min"]
    )


def test_bench_thermal_loop_governed(benchmark):
    """One governed sprint/cool schedule, closed loop end to end."""
    governor = ThermalGovernor(model=MODEL, thermal=THERMAL, dt=DT)
    phases = [
        ThermalPhase(MAXFLOPS, 1.0),
        ThermalPhase(COMD, 0.5),
    ]
    governor.thermal_cap(MAXFLOPS, HOT_CONFIG)  # warm the cap cache
    result = benchmark.pedantic(
        governor.run, args=(phases, HOT_CONFIG), rounds=3, iterations=1
    )
    benchmark.extra_info["governed_peak_c"] = result.max_peak_dram_c
    benchmark.extra_info["throttle_events"] = len(result.throttle_events)
    replay = governor.replay(phases, HOT_CONFIG)
    benchmark.extra_info["uncontrolled_peak_c"] = replay.max_peak_dram_c
