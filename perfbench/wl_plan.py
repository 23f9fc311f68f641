"""Workload ``plan``: a seeded exascale-planning session.

First ``fleet_sweep`` rolls a synthetic heterogeneous fleet (about 10k
nodes in 24 groups) up over the CU axis on a fresh pool of ``nproc - 1``
shards (the paper's Fig. 14 roll-up). Then ``ThermalGovernor.run``
integrates a MaxFlops-sprint / CoMD-cool schedule at the 384 CU /
1.5 GHz / 3 TB/s hot point under the 85 C DRAM limit (Figs. 10/11 posed
as a runtime question). Loads thermal transient and steady solves, the
governor, fleet, pool chunk tasks and the scalar perfmodel; bypasses
memsys and serve.
"""

from __future__ import annotations

import numpy as np

from repro.core.node import NodeModel
from repro.core.thermal_governor import ThermalGovernor, ThermalPhase
from repro.fleet.bench import identical_results
from repro.fleet.spec import synthetic_fleet
from repro.fleet.sweep import fleet_sweep, fleet_sweep_serial
from repro.perf.pool import ShardedPool
from repro.thermal.analysis import ThermalModel
from repro.thermal.bench import HOT_CONFIG
from repro.workloads.catalog import get_application

from sysinfo import pool_shards

CU_COUNTS = tuple(range(192, 385, 16))
SIZES = {
    # (nodes low, nodes high, groups, cycles)
    "full": (9500, 10500, 24, 4),
    "tiny": (200, 201, 4, 1),
}


class Workload:
    def __init__(self):
        self.pool = None

    def prepare(self, seed: int, size: str) -> None:
        rng = np.random.default_rng(seed)
        lo, hi, groups, cycles = SIZES[size]
        self.spec = synthetic_fleet(
            n_nodes=int(rng.integers(lo, hi)), n_groups=groups,
            seed=int(rng.integers(2**31)),
        )
        # Seeded phase lengths scaled to a fixed total, so every seed
        # simulates the same 3 s per cycle (12 s for the full size).
        lengths = np.column_stack([rng.uniform(1.6, 2.4, cycles),
                                   rng.uniform(0.6, 1.4, cycles)]).ravel()
        lengths *= 3.0 * cycles / lengths.sum()
        profiles = (get_application("MaxFlops"), get_application("CoMD"))
        self.phases = [
            ThermalPhase(profiles[i % 2], float(length))
            for i, length in enumerate(lengths)
        ]

    def build(self) -> None:
        self.model = NodeModel()
        self.pool = ShardedPool(pool_shards())
        self.governor = ThermalGovernor(
            model=self.model, thermal=ThermalModel(), dt=0.01
        )

    def run(self, recorder=None):
        self.sweep = fleet_sweep(
            self.spec, CU_COUNTS, self.model, pool=self.pool
        )
        self.loop = self.governor.run(self.phases, HOT_CONFIG)
        return None  # one operation: the whole session

    def check(self) -> tuple[int, int, int]:
        """The sweep must be bit-identical to the serial oracle, and the
        governed peak must stay under the limit that replay exceeds.
        Returns ``(attempted, failed, wrong)``; every failure here is a
        wrong output."""
        oracle = fleet_sweep_serial(self.spec, CU_COUNTS, self.model)
        replay = self.governor.replay(self.phases, HOT_CONFIG)
        failed = int(not identical_results(self.sweep, oracle))
        failed += int(not (self.loop.within_limit and not replay.within_limit))
        return 2, failed, failed

    def layer_metrics(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
