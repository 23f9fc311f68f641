"""Routing and latency accounting over the EHP topology.

Messages route along shortest latency-weighted paths. An out-of-chiplet
message pays the Section V-A structure: TSV down to the source
interposer, zero or more interposer-to-interposer traversals, TSV up into
the destination chiplet. A GPU's access to its own stacked DRAM pays only
the 3D-stack hop — the physical reason the paper stacks memory directly
on the compute die.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.noc.topology import EHPTopology, Link

__all__ = ["Route", "route", "hop_latency", "monolithic_latency"]


@dataclass(frozen=True)
class Route:
    """A resolved path through the package."""

    nodes: tuple[str, ...]
    latency: float
    tsv_hops: int
    interposer_hops: int

    @property
    def n_hops(self) -> int:
        """Total link traversals."""
        return len(self.nodes) - 1

    @property
    def crosses_chiplet(self) -> bool:
        """Did the message leave its source chiplet's vertical stack?"""
        return self.interposer_hops > 0 or self.tsv_hops > 0


def _shortest_path(
    links: dict[str, dict[str, Link]], src: str, dst: str
) -> list[str]:
    """Dijkstra over link latency: the vertex names from *src* to *dst*."""
    dist = {src: 0.0}
    prev: dict[str, str] = {}
    heap = [(0.0, src)]
    while heap:
        d, a = heapq.heappop(heap)
        if a == dst:
            break
        if d > dist[a]:
            continue  # a stale entry: *a* was reached cheaper since
        for b, link in links[a].items():
            nd = d + link.latency
            if b not in dist or nd < dist[b]:
                dist[b] = nd
                prev[b] = a
                heapq.heappush(heap, (nd, b))
    else:
        raise ValueError(f"no route from {src!r} to {dst!r}")
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return path[::-1]


def route(topology: EHPTopology, src: str, dst: str) -> Route:
    """Shortest latency-weighted route from *src* to *dst*."""
    links = topology.links
    if src not in links or dst not in links:
        raise KeyError(f"unknown endpoint: {src!r} or {dst!r}")
    path = _shortest_path(links, src, dst)
    latency = 0.0
    tsv_hops = 0
    interposer_hops = 0
    for a, b in zip(path, path[1:]):
        link = links[a][b]
        latency += link.latency
        if link.kind == "tsv":
            tsv_hops += 1
        elif link.kind == "interposer-interposer":
            interposer_hops += 1
    return Route(
        nodes=tuple(path),
        latency=latency,
        tsv_hops=tsv_hops,
        interposer_hops=interposer_hops,
    )


def hop_latency(topology: EHPTopology, src: str, dst: str) -> float:
    """Just the latency of the shortest route."""
    return route(topology, src, dst).latency


def monolithic_latency(topology: EHPTopology, src: str, dst: str) -> float:
    """Latency the same message would see on a hypothetical monolithic
    EHP: the chiplet route minus the two TSV hops (Section V-A's
    comparison baseline — on one huge die, the vertical chiplet
    crossings disappear but the lateral distance remains)."""
    r = route(topology, src, dst)
    links = [topology.links[a][b] for a, b in zip(r.nodes, r.nodes[1:])]
    tsv_edges = [link.latency for link in links if link.kind == "tsv"]
    return r.latency - sum(tsv_edges)
