"""Fleet-scale CU sweeps over heterogeneous node groups.

:func:`fleet_sweep_serial` is the oracle: for every ``(group,
profile)`` series it runs the same scalar per-point loop as
:meth:`repro.core.exascale.ExascaleSystem.estimate` — link-tier
derated, ``ext_fraction`` taken from the profile — and rolls the
series up into group and fleet curves.

:func:`fleet_sweep` is the fast path: the whole fleet is one
:meth:`~repro.core.node.NodeModel.evaluate_arrays` pass over a
(series x CU) tensor. Each series is a row of one
:class:`~repro.workloads.kernels.ProfileBatch`, with its group's
frequency, bandwidth and node count and its link-derated external
bandwidth and latency as ``(P, 1)`` columns; the rows roll up by the
same reduction. The perf and power models spell every power as a
ufunc call and run every other operation elementwise, so a point gives
the same bits alone or inside the tensor, and ``fleet_sweep(...) ==
fleet_sweep_serial(...)`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import _cu_tuple
from repro.core.exascale import ExascaleSystem
from repro.core.node import NodeModel
from repro.fleet.link import LinkDerate, LinkTierParams, derate, derate_model
from repro.fleet.spec import FleetGroup, FleetSpec
from repro.util.units import MW
from repro.workloads.kernels import _BATCH_FIELDS, KernelProfile, ProfileBatch

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
    order) so the serial and one-pass sweeps sum identically.
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
    link-derated model at the profile's external-memory fraction: the
    oracle each row of :func:`fleet_sweep`'s pass must match bit for
    bit.
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
    cu_list = _cu_tuple(cu_counts)
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
    pool=None,
) -> FleetSweepResult:
    """Sweep the fleet's CU axis; bit-identical to the serial oracle.

    One :meth:`NodeModel.evaluate_arrays` pass over every ``(group,
    profile)`` series at once, scaled to each group's node count as
    :class:`ExascaleSystem` scales one node; the rows roll up in spec
    order. *pool* is accepted for older callers and ignored.
    """
    del pool
    model = model or NodeModel()
    cu_list = _cu_tuple(cu_counts)
    if not cu_list:
        raise ValueError("cu_counts must be non-empty")
    # What config.with_axes(n_cus=n) rejects, without building it. The
    # check reads only these two fields of a config, so each distinct
    # pair is checked once, in group order, and the first error is the
    # one a check per group would raise.
    checked = set()
    for group in spec.groups:
        key = (group.config.max_cus, group.config.n_gpu_chiplets)
        if key not in checked:
            checked.add(key)
            for n in cu_list:
                group.config.check_cu_count(n)
    series = [(g, p) for g in spec.groups for p in g.profiles]

    def column(values) -> np.ndarray:
        return np.array(values, dtype=float)[:, None]

    # One row per series. Batch rows need unique names and a profile
    # may run in several groups; the row index keeps labels unique
    # whatever the names hold.
    batch = ProfileBatch(
        names=[f"{i}:{g.name}/{p.name}" for i, (g, p) in enumerate(series)],
        **{f: column([getattr(p, f) for _, p in series])
           for f in _BATCH_FIELDS},
    )
    ext_link = None  # no link tier: the machine's own external path
    if spec.link is not None:
        # The python floats derate_machine writes into the oracle's
        # machine, one row per series.
        links = [
            derate(spec.link, p.write_fraction, g.concurrent_kernels,
                   model.machine)
            for g, p in series
        ]
        ext_link = LinkDerate(
            column([link.ext_bandwidth for link in links]),
            column([link.ext_latency for link in links]),
        )
    evaluation = model.evaluate_arrays(
        batch,
        cu_list,
        column([g.config.gpu_freq for g, _ in series]),
        column([g.config.bandwidth for g, _ in series]),
        ext_fraction=batch.ext_memory_fraction,
        ext_link=ext_link,
    )
    # ExascaleSystem._scale's arithmetic, one node count per row.
    n_nodes = column([g.n_nodes for g, _ in series])
    exaflops = evaluation.performance * n_nodes / 1.0e18
    power_mw = evaluation.ehp_power * n_nodes / MW
    per = {
        (g.name, p.name): (exaflops[i], power_mw[i])
        for i, (g, p) in enumerate(series)
    }
    return _finalize(spec, cu_list, per)


def fleet_manifest(
    result: FleetSweepResult,
    wall_time: float | None = None,
) -> dict:
    """JSON-ready manifest section for one fleet sweep: the run's
    structure (groups, node counts) and its best point."""
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
    return section
