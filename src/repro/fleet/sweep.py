"""Fleet-scale CU sweeps over heterogeneous node groups.

:func:`fleet_sweep_serial` is the oracle: for every ``(group,
profile)`` series it runs the same scalar per-point loop as
:meth:`repro.core.exascale.ExascaleSystem.estimate` — link-tier
derated, ``ext_fraction`` taken from the profile — and rolls the
series up into group and fleet curves.

:func:`fleet_sweep` fans that same per-series function out over a
:class:`~repro.perf.pool.ShardedPool`: one task per series, reassembled
in spec order and rolled up by the same reduction. Workers execute the
oracle's own loop, so ``fleet_sweep(...) == fleet_sweep_serial(...)``
exactly — bit identity by construction, not by tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exascale import ExascaleSystem
from repro.core.node import NodeModel
from repro.fleet.link import LinkTierParams, derate_model
from repro.fleet.spec import FleetGroup, FleetSpec
from repro.perf.pool import PoolTask, ShardedPool
from repro.workloads.kernels import KernelProfile

__all__ = [
    "FleetSweepResult",
    "fleet_manifest",
    "fleet_sweep",
    "fleet_sweep_serial",
]


@dataclass(frozen=True)
class FleetSweepResult:
    """Every roll-up level of one fleet CU sweep.

    ``series_*`` maps ``(group_name, profile_name)`` to the per-CU
    curve for *one node group* running *one profile* scaled to the
    group's node count; ``group_*`` averages a group's profiles (its
    nodes split time evenly across the mix); ``fleet_*`` sums the
    groups. ``best_index`` picks the CU point with the highest fleet
    exaflops among points inside the power budget (falling back to the
    overall argmax when nothing fits).
    """

    spec: FleetSpec
    cu_counts: tuple[int, ...]
    series_exaflops: dict[tuple[str, str], np.ndarray]
    series_power_mw: dict[tuple[str, str], np.ndarray]
    group_exaflops: dict[str, np.ndarray]
    group_power_mw: dict[str, np.ndarray]
    fleet_exaflops: np.ndarray
    fleet_power_mw: np.ndarray
    best_index: int

    @property
    def best_cu(self) -> int:
        """CU count at the selected operating point."""
        return self.cu_counts[self.best_index]

    @property
    def best_exaflops(self) -> float:
        """Fleet exaflops at the selected operating point."""
        return float(self.fleet_exaflops[self.best_index])

    @property
    def best_power_mw(self) -> float:
        """Fleet power at the selected operating point."""
        return float(self.fleet_power_mw[self.best_index])

    @property
    def meets_budget(self) -> bool:
        """Is the selected point inside the fleet power budget?"""
        return self.best_power_mw <= self.spec.power_budget_mw

    def summary(self) -> str:
        """One human line for logs and the CLI."""
        verdict = "within" if self.meets_budget else "OVER"
        return (
            f"fleet of {self.spec.n_nodes} nodes / "
            f"{len(self.spec.groups)} groups: best {self.best_exaflops:.3f}"
            f" EF @ {self.best_cu} CUs, {self.best_power_mw:.2f} MW "
            f"({verdict} {self.spec.power_budget_mw:.0f} MW budget)"
        )


def _finalize(
    spec: FleetSpec,
    cu_counts: tuple[int, ...],
    per: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]],
) -> FleetSweepResult:
    """Group and fleet roll-ups from per-series curves.

    Deterministic reduction order (profiles then groups, both in spec
    order) so the serial and pooled sweeps sum identically.
    """
    n = len(cu_counts)
    series_exa: dict[tuple[str, str], np.ndarray] = {}
    series_mw: dict[tuple[str, str], np.ndarray] = {}
    group_exa: dict[str, np.ndarray] = {}
    group_mw: dict[str, np.ndarray] = {}
    fleet_exa = np.zeros(n, dtype=float)
    fleet_mw = np.zeros(n, dtype=float)
    for group in spec.groups:
        g_exa = np.zeros(n, dtype=float)
        g_mw = np.zeros(n, dtype=float)
        for profile in group.profiles:
            exa, mw = per[(group.name, profile.name)]
            series_exa[(group.name, profile.name)] = exa
            series_mw[(group.name, profile.name)] = mw
            g_exa = g_exa + exa
            g_mw = g_mw + mw
        # The group's nodes split time evenly across its profile mix.
        g_exa = g_exa / float(len(group.profiles))
        g_mw = g_mw / float(len(group.profiles))
        group_exa[group.name] = g_exa
        group_mw[group.name] = g_mw
        fleet_exa = fleet_exa + g_exa
        fleet_mw = fleet_mw + g_mw
    feasible = fleet_mw <= spec.power_budget_mw
    if bool(np.any(feasible)):
        best = int(np.argmax(np.where(feasible, fleet_exa, -np.inf)))
    else:
        best = int(np.argmax(fleet_exa))
    return FleetSweepResult(
        spec=spec,
        cu_counts=cu_counts,
        series_exaflops=series_exa,
        series_power_mw=series_mw,
        group_exaflops=group_exa,
        group_power_mw=group_mw,
        fleet_exaflops=fleet_exa,
        fleet_power_mw=fleet_mw,
        best_index=best,
    )


def _sweep_series(
    group: FleetGroup,
    profile: KernelProfile,
    model: NodeModel,
    link: LinkTierParams | None,
    cu_counts: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """One ``(group, profile)`` series: ``(exaflops, MW)`` per CU count.

    The plain scalar :meth:`ExascaleSystem.estimate` loop on the
    link-derated model at the profile's external-memory fraction. The
    oracle and every pooled task run exactly this function (module
    level: picklable), which is what makes the two bit-identical —
    numpy scalarmath and vectorized ufuncs may differ by 1 ULP, so the
    loop deliberately stays scalar.
    """
    gmodel = derate_model(model, link, profile, group.concurrent_kernels)
    system = ExascaleSystem(group.n_nodes, gmodel)
    ext = float(profile.ext_memory_fraction)
    exa = np.empty(len(cu_counts), dtype=float)
    mw = np.empty(len(cu_counts), dtype=float)
    for i, n in enumerate(cu_counts):
        est = system.estimate(
            profile, group.config.with_axes(n_cus=n), ext_fraction=ext
        )
        exa[i] = est.exaflops
        mw[i] = est.machine_power_mw
    return exa, mw


def fleet_sweep_serial(
    spec: FleetSpec,
    cu_counts,
    model: NodeModel | None = None,
) -> FleetSweepResult:
    """The oracle: every series swept in-process, in spec order."""
    model = model or NodeModel()
    cu_list = tuple(int(n) for n in cu_counts)
    per = {
        (group.name, profile.name): _sweep_series(
            group, profile, model, spec.link, cu_list
        )
        for group in spec.groups
        for profile in group.profiles
    }
    return _finalize(spec, cu_list, per)


def fleet_sweep(
    spec: FleetSpec,
    cu_counts,
    model: NodeModel | None = None,
    *,
    pool: ShardedPool | None = None,
) -> FleetSweepResult:
    """Sweep the fleet's CU axis; bit-identical to the serial oracle.

    With *pool*, every ``(group, profile)`` series is one unkeyed
    :class:`~repro.perf.pool.PoolTask` (dealt round-robin across the
    workers) running the oracle's own series function; the parent
    rolls the curves up in spec order. ``pool=None`` returns
    :func:`fleet_sweep_serial`.
    """
    model = model or NodeModel()
    cu_list = tuple(int(n) for n in cu_counts)
    if not cu_list:
        raise ValueError("cu_counts must be non-empty")
    if pool is None:
        return fleet_sweep_serial(spec, cu_list, model)
    # Validate every config eagerly — the pooled path must reject
    # exactly what the serial loop would, before any work ships.
    for group in spec.groups:
        for n in cu_list:
            group.config.with_axes(n_cus=n)
    keys = []
    tasks = []
    for group in spec.groups:
        for profile in group.profiles:
            keys.append((group.name, profile.name))
            tasks.append(
                PoolTask(
                    fn=_sweep_series,
                    args=(group, profile, model, spec.link, cu_list),
                    label=f"fleet.{group.name}.{profile.name}",
                )
            )
    return _finalize(spec, cu_list, dict(zip(keys, pool.run(tasks))))


def fleet_manifest(
    result: FleetSweepResult,
    pool: ShardedPool | None = None,
    wall_time: float | None = None,
) -> dict:
    """JSON-ready manifest section for one fleet sweep.

    Merges the run's structure (groups, node counts, best point) with
    the pool's shard-level health: the initial task spread and the
    balance efficiency ``check_fleet`` gates on.
    """
    spec = result.spec
    section: dict = {
        "n_nodes": spec.n_nodes,
        "n_groups": len(spec.groups),
        "n_series": spec.n_series,
        "cu_counts": list(result.cu_counts),
        "power_budget_mw": spec.power_budget_mw,
        "link_tier": None if spec.link is None else repr(spec.link),
        "groups": [
            {
                "name": g.name,
                "n_nodes": g.n_nodes,
                "profiles": [p.name for p in g.profiles],
                "concurrent_kernels": g.concurrent_kernels,
                "n_cus": g.config.n_cus,
                "gpu_freq": g.config.gpu_freq,
                "bandwidth": g.config.bandwidth,
            }
            for g in spec.groups
        ],
        "best": {
            "cu": result.best_cu,
            "exaflops": result.best_exaflops,
            "power_mw": result.best_power_mw,
            "meets_budget": result.meets_budget,
        },
    }
    if wall_time is not None:
        section["wall_time_s"] = wall_time
    if pool is not None:
        section["pool"] = {
            "n_shards": pool.n_shards,
            "shard_task_counts": pool.last_shard_task_counts(),
            "assignment_balance": pool.assignment_balance(),
        }
    return section
