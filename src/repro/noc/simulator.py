"""Event-driven NoC simulator.

A small discrete-event network simulator over the EHP topology, used to
cross-check the analytic contention model: messages serialize over each
link at the link's bandwidth, queueing behind earlier arrivals, so
latency grows with offered load exactly the way the analytic model's
bounded queueing term approximates.

This is deliberately flit-free (store-and-forward per message): the goal
is first-order contention behaviour across a wide design space, matching
the paper's choice of high-level simulation over cycle-level detail.

The hot loop works on integers and flat lists rather than graph objects:
links are enumerated once into integer ids with a latency table, every
(src, dst) route is resolved once into a tuple of link ids, and per-link
occupancy lives in flat ``busy_until`` lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.config import _finite_positive
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.noc.routing import route
from repro.noc.topology import EHPTopology

__all__ = ["SimMessage", "LinkStats", "SimResult", "NocSimulator"]


@dataclass(frozen=True)
class SimMessage:
    """One injected message."""

    src: str
    dst: str
    size_bytes: float
    inject_time: float

    def __post_init__(self) -> None:
        if not _finite_positive(self.size_bytes):
            raise ValueError("size_bytes must be finite and positive")
        if not 0 <= self.inject_time < math.inf:
            raise ValueError("inject_time must be finite and non-negative")


@dataclass
class LinkStats:
    """Accumulated per-link occupancy."""

    busy_until: float = 0.0
    bytes_carried: float = 0.0
    messages: int = 0


@dataclass
class SimResult:
    """Aggregate simulation outcome.

    Per-link statistics ride along in :attr:`link_stats` (keyed by the
    ``frozenset`` of the link's endpoint names), so a result is
    self-contained — no state has to be fished back out of the simulator.
    """

    delivered: int
    makespan: float
    total_bytes: float
    latencies: list[float] = field(repr=False, default_factory=list)
    link_stats: Mapping[frozenset, LinkStats] = field(
        repr=False, default_factory=dict
    )
    link_bandwidth: float = 0.0

    @property
    def mean_latency(self) -> float:
        """Mean end-to-end message latency, seconds."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def p99_latency(self) -> float:
        """99th-percentile latency, seconds."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]

    @property
    def throughput(self) -> float:
        """Delivered bytes per second over the makespan."""
        if self.makespan == 0:
            return 0.0
        return self.total_bytes / self.makespan

    def link_utilization(
        self, makespan: float | None = None
    ) -> dict[frozenset, float]:
        """Per-link busy fraction over *makespan* (default: the run's)."""
        span = self.makespan if makespan is None else makespan
        if span <= 0:
            raise ValueError("makespan must be positive")
        if self.link_bandwidth <= 0:
            raise ValueError("result carries no link bandwidth")
        return {
            k: min(1.0, s.bytes_carried / self.link_bandwidth / span)
            for k, s in self.link_stats.items()
        }


class NocSimulator:
    """Store-and-forward message simulator over the EHP topology.

    Parameters
    ----------
    topology:
        The package graph; defaults to the standard EHP build.
    link_bandwidth:
        Bytes/s each link can carry (wide in-package paths).
    """

    def __init__(
        self,
        topology: EHPTopology | None = None,
        link_bandwidth: float = 512.0e9,
    ):
        if not _finite_positive(link_bandwidth):
            raise ValueError("link_bandwidth must be finite and positive")
        self.topology = topology or EHPTopology()
        self.link_bandwidth = link_bandwidth
        self._route_cache: dict[tuple[str, str], tuple[str, ...]] = {}
        # Integer link tables, built once from the topology's link table
        # (which lists each link under both endpoints).
        self._link_names: list[frozenset] = []
        self._link_latency: list[float] = []
        self._link_id: dict[tuple[str, str], int] = {}
        for a, neighbours in self.topology.links.items():
            for b, link in neighbours.items():
                if (a, b) in self._link_id:
                    continue
                lid = len(self._link_names)
                self._link_names.append(frozenset((a, b)))
                self._link_latency.append(float(link.latency))
                self._link_id[(a, b)] = lid
                self._link_id[(b, a)] = lid
        self._path_links: dict[tuple[str, str], tuple[int, ...]] = {}
        self._last_result: SimResult | None = None

    def _path(self, src: str, dst: str) -> tuple[str, ...]:
        key = (src, dst)
        if key not in self._route_cache:
            self._route_cache[key] = route(self.topology, src, dst).nodes
        return self._route_cache[key]

    def _links_for(self, src: str, dst: str) -> tuple[int, ...]:
        """The route from *src* to *dst* as a tuple of integer link ids."""
        key = (src, dst)
        cached = self._path_links.get(key)
        if cached is None:
            nodes = self._path(src, dst)
            cached = tuple(
                self._link_id[(a, b)] for a, b in zip(nodes, nodes[1:])
            )
            self._path_links[key] = cached
        return cached

    # ------------------------------------------------------------------
    def run(self, messages: Sequence[SimMessage]) -> SimResult:
        """Deliver *messages*, honouring per-link serialization.

        Each message claims every link of its path in order; a link busy
        with an earlier message delays it (FCFS per link). Returns
        aggregate latency/throughput statistics plus per-link stats.
        """
        if not messages:
            return self._finish(
                SimResult(delivered=0, makespan=0.0, total_bytes=0.0,
                          link_bandwidth=self.link_bandwidth)
            )
        srcs = [m.src for m in messages]
        dsts = [m.dst for m in messages]
        sizes = [m.size_bytes for m in messages]
        times = [m.inject_time for m in messages]
        with obs_trace.span("noc.run", messages=len(messages)), \
                obs_metrics.timed("noc.run_seconds"):
            result = self._run_messages(srcs, dsts, sizes, times)
        obs_metrics.inc("noc.runs")
        obs_metrics.inc("noc.messages", result.delivered)
        obs_metrics.inc("noc.bytes", int(result.total_bytes))
        return result

    # ------------------------------------------------------------------
    def _run_messages(
        self,
        srcs: Sequence[str],
        dsts: Sequence[str],
        sizes: list[float],
        times: list[float],
    ) -> SimResult:
        n = len(srcs)
        # Resolve every message's route to a path id once; identical
        # (src, dst) pairs share one integer-link tuple.
        pid_of: dict[tuple[str, str], int] = {}
        paths: list[tuple[int, ...]] = []
        msg_pid = [0] * n
        for k in range(n):
            key = (srcs[k], dsts[k])
            pid = pid_of.get(key)
            if pid is None:
                pid = len(paths)
                pid_of[key] = pid
                paths.append(self._links_for(*key))
            msg_pid[k] = pid

        # FCFS by injection time, ties broken by injection order (the
        # same order the previous heap-based implementation processed).
        order = np.argsort(np.asarray(times), kind="stable").tolist()

        bandwidth = self.link_bandwidth
        busy = [0.0] * len(self._link_names)
        lat = self._link_latency
        latencies: list[float] = []
        append_latency = latencies.append
        makespan = 0.0
        total_bytes = 0.0
        path_bytes = [0.0] * len(paths)
        path_msgs = [0] * len(paths)

        for k in order:
            t0 = times[k]
            size = sizes[k]
            serialize = size / bandwidth
            pid = msg_pid[k]
            t = t0
            for li in paths[pid]:
                b = busy[li]
                start = b if b > t else t
                end = start + serialize
                busy[li] = end
                t = end + lat[li]
            append_latency(t - t0)
            if t > makespan:
                makespan = t
            total_bytes += size
            path_bytes[pid] += size
            path_msgs[pid] += 1

        link_stats: dict[frozenset, LinkStats] = {}
        for pid, links in enumerate(paths):
            if not path_msgs[pid]:
                continue
            for li in links:
                stats = link_stats.get(self._link_names[li])
                if stats is None:
                    stats = LinkStats()
                    link_stats[self._link_names[li]] = stats
                stats.bytes_carried += path_bytes[pid]
                stats.messages += path_msgs[pid]
                stats.busy_until = busy[li]

        return self._finish(
            SimResult(
                delivered=n,
                makespan=makespan,
                total_bytes=total_bytes,
                latencies=latencies,
                link_stats=link_stats,
                link_bandwidth=bandwidth,
            )
        )

    def _finish(self, result: SimResult) -> SimResult:
        self._last_result = result
        return result

    # ------------------------------------------------------------------
    def link_utilization(self, makespan: float) -> dict[frozenset, float]:
        """Per-link busy fraction over *makespan* (after a run).

        Prefer :meth:`SimResult.link_utilization` on the returned result;
        this method reads the last run and raises if none has happened
        (instead of silently returning ``{}``).
        """
        if makespan <= 0:
            raise ValueError("makespan must be positive")
        if self._last_result is None:
            raise RuntimeError(
                "link_utilization needs a completed run(); none yet"
            )
        return self._last_result.link_utilization(makespan)
