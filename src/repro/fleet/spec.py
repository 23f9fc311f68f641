"""Heterogeneous fleet descriptions.

A fleet is a set of :class:`FleetGroup` rows — ``(config, profile-mix,
node-count)`` plus how many kernels run concurrently per node (the
link tier's contention input) — under one optional
:class:`~repro.fleet.link.LinkTierParams`. :func:`synthetic_fleet`
builds deterministic pseudo-random fleets for benchmarks, gates, and
property tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import EHPConfig
from repro.fleet.link import LinkTierParams
from repro.util.units import GHZ, TB
from repro.workloads.kernels import KernelProfile

__all__ = [
    "FleetGroup",
    "FleetSpec",
    "synthetic_fleet",
]


@dataclass(frozen=True)
class FleetGroup:
    """One homogeneous slice of the fleet.

    *config* fixes the group's frequency/bandwidth operating point and
    structural organization (the fleet sweep varies the CU axis around
    it); *profiles* is the kernel mix its nodes run, *n_nodes* how many
    nodes the group contributes, and *concurrent_kernels* how many
    kernels share each node's inter-APU links.
    """

    name: str
    config: EHPConfig = field(default_factory=EHPConfig)
    profiles: tuple[KernelProfile, ...] = ()
    n_nodes: int = 1
    concurrent_kernels: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if not self.name:
            raise ValueError("group name must be non-empty")
        if not self.profiles:
            raise ValueError(f"group {self.name!r} needs >= 1 profile")
        names = [p.name for p in self.profiles]
        if len(set(names)) != len(names):
            raise ValueError(
                f"group {self.name!r} repeats profile names: {names}"
            )
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if self.concurrent_kernels < 1:
            raise ValueError("concurrent_kernels must be >= 1")


@dataclass(frozen=True)
class FleetSpec:
    """A whole heterogeneous fleet under one link tier."""

    groups: tuple[FleetGroup, ...]
    link: LinkTierParams | None = None
    power_budget_mw: float = 20.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ValueError("a fleet needs >= 1 group")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ValueError(f"group names must be unique: {names}")
        if self.power_budget_mw <= 0:
            raise ValueError("power_budget_mw must be positive")

    @property
    def n_nodes(self) -> int:
        """Total nodes across all groups."""
        return sum(g.n_nodes for g in self.groups)

    @property
    def n_series(self) -> int:
        """Total (group, profile) sweep series."""
        return sum(len(g.profiles) for g in self.groups)


def synthetic_fleet(
    n_nodes: int = 1000,
    n_groups: int = 6,
    seed: int = 0,
    link: LinkTierParams | None = LinkTierParams(),
    profile_names=None,
) -> FleetSpec:
    """A deterministic pseudo-random heterogeneous fleet.

    Groups draw distinct-ish operating points (frequency, bandwidth),
    1-3 profiles from the catalog, concurrency 1-4, and node counts
    that sum exactly to *n_nodes*. The same ``(n_nodes, n_groups,
    seed)`` always builds the same spec — benchmarks, the
    ``check_fleet`` gate, and cross-run manifests rely on that.
    """
    from repro.workloads.catalog import application_names, get_application

    if n_groups <= 0 or n_nodes < n_groups:
        raise ValueError("need n_groups >= 1 and n_nodes >= n_groups")
    rng = np.random.default_rng(seed)
    catalog = list(profile_names or application_names())
    freq_choices = (0.8 * GHZ, 1.0 * GHZ, 1.2 * GHZ)
    bw_choices = (1.0 * TB, 2.0 * TB, 3.0 * TB)

    # Node counts: at least one node each, remainder split multinomially.
    extra = rng.multinomial(
        n_nodes - n_groups, np.full(n_groups, 1.0 / n_groups)
    )
    groups = []
    for i in range(n_groups):
        config = EHPConfig(
            n_cus=320,
            gpu_freq=float(freq_choices[rng.integers(len(freq_choices))]),
            bandwidth=float(bw_choices[rng.integers(len(bw_choices))]),
        )
        n_profiles = int(rng.integers(1, min(3, len(catalog)) + 1))
        picks = rng.choice(len(catalog), size=n_profiles, replace=False)
        profiles = tuple(get_application(catalog[int(j)]) for j in picks)
        groups.append(
            FleetGroup(
                name=f"group{i}",
                config=config,
                profiles=profiles,
                n_nodes=int(extra[i]) + 1,
                concurrent_kernels=int(rng.integers(1, 5)),
            )
        )
    return FleetSpec(groups=tuple(groups), link=link)
