"""The external memory network (Section II-B2).

The EHP exposes eight external-memory interfaces; each connects a chain
of memory modules over point-to-point SerDes links (Hybrid Memory Cube
style). Interfaces are address-interleaved so no request crosses chains
in normal operation; optional cross-links connect chain tails for
redundancy, letting the network reach modules past a failed link.

This model captures chain topology, per-hop latency/bandwidth, link
failure and rerouting, and aggregate capacity/bandwidth bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import _finite_positive, _is_int
from repro.util.units import GB, NS

__all__ = ["MemoryModule", "ExternalMemoryNetwork"]


@dataclass(frozen=True)
class MemoryModule:
    """One module in a chain: DRAM or NVM."""

    name: str
    kind: str  # "dram" or "nvm"
    capacity: float

    def __post_init__(self) -> None:
        if self.kind not in ("dram", "nvm"):
            raise ValueError(f"unknown module kind {self.kind!r}")
        if not _finite_positive(self.capacity):
            raise ValueError("capacity must be finite and positive")


@dataclass
class _Chain:
    """One interface's chain of modules."""

    modules: list[MemoryModule] = field(default_factory=list)
    failed_links: set = field(default_factory=set)  # indices of dead hops


class ExternalMemoryNetwork:
    """Eight chains of external memory modules with optional redundancy.

    Parameters
    ----------
    n_interfaces:
        EHP external-memory interfaces (8 in the paper).
    link_bandwidth:
        Per-link SerDes bandwidth, B/s.
    link_latency:
        Per-hop latency, seconds.
    cross_linked:
        When true, chain tails are cross-connected pairwise so traffic
        can reroute around a failed link through the neighbouring chain.
    """

    def __init__(
        self,
        n_interfaces: int = 8,
        link_bandwidth: float = 64.0e9,
        link_latency: float = 40.0 * NS,
        cross_linked: bool = False,
    ):
        if not (_is_int(n_interfaces) and n_interfaces > 0):
            raise ValueError("n_interfaces must be a positive integer")
        for name, value in (
            ("link_bandwidth", link_bandwidth), ("link_latency", link_latency)
        ):
            if not _finite_positive(value):
                raise ValueError(f"{name} must be finite and positive")
        self.n_interfaces = n_interfaces
        self.link_bandwidth = link_bandwidth
        self.link_latency = link_latency
        self.cross_linked = cross_linked
        self.chains = [_Chain() for _ in range(n_interfaces)]

    # ------------------------------------------------------------------
    @classmethod
    def dram_only(cls, capacity_tb: float = 1.0, **kwargs) -> "ExternalMemoryNetwork":
        """The paper's baseline: 64 GB DRAM modules, evenly chained."""
        net = cls(**kwargs)
        n_modules = round(capacity_tb * 1000.0 / 64.0)
        for i in range(n_modules):
            net.add_module(
                i % net.n_interfaces,
                MemoryModule(f"dram{i}", "dram", 64.0 * GB),
            )
        return net

    @classmethod
    def hybrid(cls, capacity_tb: float = 1.0, **kwargs) -> "ExternalMemoryNetwork":
        """Fig. 9's comparison: half the capacity in 4x-denser NVM."""
        net = cls(**kwargs)
        half_gb = capacity_tb * 1000.0 / 2.0
        n_dram = round(half_gb / 64.0)
        n_nvm = round(half_gb / 256.0)
        for i in range(n_dram):
            net.add_module(
                i % net.n_interfaces,
                MemoryModule(f"dram{i}", "dram", 64.0 * GB),
            )
        for i in range(n_nvm):
            net.add_module(
                i % net.n_interfaces,
                MemoryModule(f"nvm{i}", "nvm", 256.0 * GB),
            )
        return net

    def add_module(self, interface: int, module: MemoryModule) -> None:
        """Append *module* to an interface's chain."""
        self._check_interface(interface)
        self.chains[interface].modules.append(module)

    def _check_interface(self, interface: int) -> None:
        if not 0 <= interface < self.n_interfaces:
            raise IndexError(f"interface {interface} out of range")

    # ------------------------------------------------------------------
    @property
    def total_capacity(self) -> float:
        """Bytes across all chains."""
        return sum(m.capacity for c in self.chains for m in c.modules)

    @property
    def n_modules(self) -> int:
        """Modules across all chains."""
        return sum(len(c.modules) for c in self.chains)

    @property
    def n_links(self) -> int:
        """Total SerDes hops (one per module in a chain topology)."""
        return self.n_modules

    @property
    def aggregate_bandwidth(self) -> float:
        """Peak bandwidth: one link's worth per interface with at least
        one reachable module (the chain head link is the bottleneck)."""
        active = sum(
            1
            for i, c in enumerate(self.chains)
            if any(self.is_reachable(i, pos) for pos in range(len(c.modules)))
        )
        return active * self.link_bandwidth

    # ------------------------------------------------------------------
    def fail_link(self, interface: int, hop: int) -> None:
        """Mark the link *hop* (0 = EHP-to-first-module) as failed."""
        self._check_interface(interface)
        if not 0 <= hop < len(self.chains[interface].modules):
            raise IndexError(f"hop {hop} out of range")
        self.chains[interface].failed_links.add(hop)

    def repair_link(self, interface: int, hop: int) -> None:
        """Clear a failure."""
        self._check_interface(interface)
        self.chains[interface].failed_links.discard(hop)

    def _partner(self, interface: int) -> int:
        """The cross-linked partner chain (pairwise: 0-1, 2-3, ...)."""
        return interface ^ 1

    def is_reachable(self, interface: int, position: int) -> bool:
        """Can the module at *position* in *interface*'s chain be reached,
        directly or (if cross-linked) through the partner chain's tail?"""
        self._check_interface(interface)
        chain = self.chains[interface]
        if position >= len(chain.modules):
            raise IndexError(f"position {position} out of range")
        direct = all(h not in chain.failed_links for h in range(position + 1))
        if direct:
            return True
        if not self.cross_linked:
            return False
        partner = self._partner(interface)
        if partner >= self.n_interfaces or partner == interface:
            return False
        # Reverse path: down the partner chain, across the tail
        # cross-link, then backwards up this chain to the module.
        partner_chain = self.chains[partner]
        if not partner_chain.modules:
            return False
        partner_ok = all(
            h not in partner_chain.failed_links
            for h in range(len(partner_chain.modules))
        )
        n = len(chain.modules)
        reverse_ok = all(
            h not in chain.failed_links for h in range(position + 1, n)
        )
        return partner_ok and reverse_ok

    def access_latency(self, interface: int, position: int) -> float:
        """Hop latency to reach a module (direct or rerouted).

        Raises ``RuntimeError`` when the module is unreachable.
        """
        self._check_interface(interface)
        chain = self.chains[interface]
        direct = all(
            h not in chain.failed_links for h in range(position + 1)
        )
        if direct:
            return (position + 1) * self.link_latency
        if not self.is_reachable(interface, position):
            raise RuntimeError(
                f"module {position} on interface {interface} unreachable"
            )
        partner = self._partner(interface)
        hops = (
            len(self.chains[partner].modules)  # down the partner chain
            + 1  # tail cross-link
            + (len(chain.modules) - position)  # back up this chain
        )
        return hops * self.link_latency
