"""Benchmarks for the fused whole-grid tensor evaluation (PR 6).

Times the fused ``NodeModel.evaluate_grid`` broadcast pass against the
retained per-profile ``evaluate_arrays`` oracle loop at Table-II scale,
plus the tensor-engine ``explore`` path the experiments actually use.
The >=10x ratio and argmax-identity assertions live in
``benchmarks/check_perf.py check_tensor_eval``.
"""

import numpy as np

from repro.core.config import DesignSpace
from repro.core.dse import explore
from repro.core.node import NodeModel
from repro.util import alloctune
from repro.workloads.catalog import application_names, get_application
from repro.workloads.kernels import ProfileBatch

alloctune.retain_freed_heap()


def _scaled_profiles(scales: int = 8):
    apps = [get_application(n) for n in application_names()]
    return [
        app.scaled_problem(float(2 ** k)).with_overrides(
            name=f"{app.name}/x{2 ** k}"
        )
        for app in apps
        for k in range(scales)
    ]


def test_bench_tensor_grid_64(benchmark):
    """Fused (64 profiles x 1617 points) broadcast pass."""
    model = NodeModel()
    space = DesignSpace()
    batch = ProfileBatch.from_profiles(_scaled_profiles())
    model.evaluate_grid(batch, space)  # page in scratch outside the timer
    benchmark(model.evaluate_grid, batch, space)


def test_bench_point_loop_64(benchmark):
    """The seed path: 64 per-profile evaluate_arrays sweeps."""
    model = NodeModel()
    space = DesignSpace()
    profiles = _scaled_profiles()
    cus, freqs, bws = space.grid_arrays()

    def loop():
        for profile in profiles:
            ev = model.evaluate_arrays(profile, cus, freqs, bws)
            np.asarray(ev.performance, dtype=float)
            power = np.asarray(ev.node_power, dtype=float)
            power <= space.power_budget

    benchmark.pedantic(loop, rounds=3, iterations=1)


def test_bench_explore_tensor(benchmark):
    """Full catalog DSE through the tensor engine."""
    profiles = [get_application(n) for n in application_names()]
    benchmark(explore, profiles, engine="tensor")


def test_bench_explore_point(benchmark):
    """Full catalog DSE through the point oracle."""
    profiles = [get_application(n) for n in application_names()]
    benchmark.pedantic(
        lambda: explore(profiles, engine="point"),
        rounds=3,
        iterations=1,
    )
