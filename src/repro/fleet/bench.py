"""Fleet benchmark: sharded sweep vs serial oracle on one fleet.

Measures the serial per-point estimate loop against one cold sweep on
a fresh sharded pool, plus the pool's task spread and balance — and
verifies the sharded result is bit-identical to the oracle before
reporting any number. ``python -m repro fleet`` routes here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.node import NodeModel
from repro.fleet.spec import FleetSpec, synthetic_fleet
from repro.fleet.sweep import (
    FleetSweepResult,
    fleet_manifest,
    fleet_sweep,
    fleet_sweep_serial,
)
from repro.perf.pool import ShardedPool

__all__ = ["FleetBenchReport", "identical_results", "run_fleet_bench"]


def identical_results(a: FleetSweepResult, b: FleetSweepResult) -> bool:
    """Bit-exact equality of every curve and the selected point."""
    if a.cu_counts != b.cu_counts or a.best_index != b.best_index:
        return False
    if set(a.series_exaflops) != set(b.series_exaflops):
        return False
    for key in a.series_exaflops:
        if not np.array_equal(a.series_exaflops[key], b.series_exaflops[key]):
            return False
        if not np.array_equal(a.series_power_mw[key], b.series_power_mw[key]):
            return False
    return bool(
        np.array_equal(a.fleet_exaflops, b.fleet_exaflops)
        and np.array_equal(a.fleet_power_mw, b.fleet_power_mw)
    )


@dataclass(frozen=True)
class FleetBenchReport:
    """Outcome of one fleet benchmark run."""

    n_nodes: int
    n_groups: int
    n_series: int
    n_points: int
    serial_s: float
    cold_s: float
    identical: bool
    shard_task_counts: list[int]
    assignment_balance: float
    result: FleetSweepResult | None = None
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            k: getattr(self, k)
            for k in (
                "n_nodes", "n_groups", "n_series", "n_points",
                "serial_s", "cold_s", "identical", "shard_task_counts",
                "assignment_balance",
            )
        }
        if self.result is not None:
            out["best"] = {
                "cu": self.result.best_cu,
                "exaflops": self.result.best_exaflops,
                "power_mw": self.result.best_power_mw,
                "meets_budget": self.result.meets_budget,
            }
        out.update(self.extra)
        return out

    def render(self) -> str:
        lines = [
            "fleet bench:",
            f"  fleet         {self.n_nodes} nodes / {self.n_groups} "
            f"groups, {self.n_series} series x {self.n_points} CU points",
            f"  serial        {self.serial_s * 1e3:.1f} ms",
            f"  sharded cold  {self.cold_s * 1e3:.1f} ms",
            f"  identity      "
            f"{'bit-identical' if self.identical else 'DIVERGED'}",
            f"  shards        tasks {self.shard_task_counts}, "
            f"balance {self.assignment_balance:.2f}",
        ]
        if self.result is not None:
            lines.append(f"  {self.result.summary()}")
        return "\n".join(lines)


def run_fleet_bench(
    *,
    spec: FleetSpec | None = None,
    n_nodes: int = 1000,
    n_groups: int = 6,
    seed: int = 0,
    shards: int = 2,
    cu_counts=None,
    model: NodeModel | None = None,
) -> FleetBenchReport:
    """The serial oracle, then one sweep on a fresh pool.

    *spec* overrides the synthetic fleet.
    """
    spec = spec or synthetic_fleet(
        n_nodes=n_nodes, n_groups=n_groups, seed=seed
    )
    cu_list = tuple(
        int(n) for n in (cu_counts or range(192, 385, 16))
    )
    model = model or NodeModel()

    t0 = time.perf_counter()
    oracle = fleet_sweep_serial(spec, cu_list, model)
    serial_s = time.perf_counter() - t0

    with ShardedPool(shards) as pool:
        t0 = time.perf_counter()
        cold = fleet_sweep(spec, cu_list, model, pool=pool)
        cold_s = time.perf_counter() - t0
        return FleetBenchReport(
            n_nodes=spec.n_nodes,
            n_groups=len(spec.groups),
            n_series=spec.n_series,
            n_points=len(cu_list),
            serial_s=serial_s,
            cold_s=cold_s,
            identical=identical_results(oracle, cold),
            shard_task_counts=pool.last_shard_task_counts(),
            assignment_balance=pool.assignment_balance(),
            result=cold,
            extra={"manifest": fleet_manifest(cold, pool=pool)},
        )
