"""Workload ``serve``: a seeded open-loop request stream into EvalService.

One process drives a Poisson arrival stream at the rated load into an
:class:`~repro.serve.service.EvalService` on a
:class:`~repro.perf.pool.ShardedPool` of ``nproc - 1`` shards, starting
from empty caches. The generator runs on the service's event loop and
times every request from the moment it was due, not from its admission,
so a stall also charges the requests queued behind it. Every request
carries a 250 ms deadline. The mix:

* Zipf-hot repeating points, which take the inline-cache path;
* distinct points on a fine (CU, freq, BW) grid, which miss the cache
  and are coalesced into tensor slabs;
* small sweeps over a few seeded spaces;
* a few trace simulations on distinct traces (apu_sim, solo path).

Loads the serve batcher, the eval cache, the perfmodel/power tensor pass
and pool dispatch; bypasses memsys, thermal and fleet.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.core.config import DesignSpace
from repro.core.dse import DseResult
from repro.core.node import NodeModel
from repro.perf.pool import ShardedPool
from repro.serve.requests import (
    EXPIRED,
    FAILED,
    OK,
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    PointRequest,
    PointResult,
    SimulateRequest,
    SweepRequest,
)
from repro.serve.service import EvalService, serial_answer
from repro.serve.workload import Arrival
from repro.workloads.catalog import APPLICATIONS
from repro.workloads.traces import TraceGenerator

from sysinfo import pool_shards

RATE_HZ = 25.0
"""Rated load. On a 2-vCPU host the service met the 250 ms p99 limit up
to about 700 req/s, but from 100 req/s up its latency there was set by
host scheduling stalls and varied between runs by more than the
benchmark's bounds; 25 req/s is the rate at which its median was
steady."""

DEADLINE_S = 0.25
N_REQUESTS = {"full": 300, "tiny": 60}
MIX = (("hot", 0.35), ("distinct", 0.45), ("sweep", 0.17), ("simulate", 0.03))
N_HOT_TEMPLATES = 24
N_SWEEP_SPACES = 6
N_STREAMS = 32
SIM_ACCESSES = 2000

# Coarse axes for the hot templates, fine axes for the distinct points.
_CU_COARSE = (192, 256, 320, 384)
_FREQ_COARSE = (0.8e9, 1.0e9, 1.2e9, 1.4e9)
_BW_COARSE = (1.0e12, 2.0e12, 3.0e12, 4.0e12)
_CU_FINE = tuple(range(192, 385, 32))
_FREQ_FINE = tuple(float(f) * 1e6 for f in range(700, 1501, 5))
_BW_FINE = tuple(round(1.0 + 0.05 * i, 2) * 1e12 for i in range(121))


def make_arrivals(seed: int, n_requests: int):
    """The seeded arrival stream: ``[(Arrival, kind), ...]``."""
    rng = np.random.default_rng(seed)
    profiles = list(APPLICATIONS.values())

    def pick(axis):
        return axis[int(rng.integers(len(axis)))]

    hot = [
        (pick(profiles), int(pick(_CU_COARSE)), float(pick(_FREQ_COARSE)),
         float(pick(_BW_COARSE)))
        for _ in range(N_HOT_TEMPLATES)
    ]
    ranks = np.arange(1, len(hot) + 1, dtype=float)
    zipf = (1.0 / ranks) / (1.0 / ranks).sum()

    def axis_with_floor(axis, extra):
        # The lowest value keeps one point under the power budget for
        # every profile, so no sweep is infeasible.
        picks = rng.choice(len(axis) - 1, extra, replace=False) + 1
        return (axis[0],) + tuple(axis[int(i)] for i in sorted(picks))

    spaces = [
        DesignSpace(
            cu_counts=axis_with_floor(_CU_FINE, 2),
            frequencies=axis_with_floor(_FREQ_FINE, 2),
            bandwidths=axis_with_floor(_BW_FINE, 1),
        )
        for _ in range(N_SWEEP_SPACES)
    ]
    # Exact shares in a shuffled order: the mix, and so the share of
    # cache hits, does not drift from one seed to the next.
    counts = [int(share * n_requests) for _, share in MIX]
    counts[0] += n_requests - sum(counts)
    kinds = [k for (k, _), c in zip(MIX, counts) for _ in range(c)]
    rng.shuffle(kinds)
    at = np.cumsum(rng.exponential(1.0 / RATE_HZ, size=n_requests))
    out = []
    for i, kind in enumerate(kinds):
        common = {"stream": f"stream-{i % N_STREAMS}",
                  "deadline_s": DEADLINE_S}
        if kind == "hot":
            profile, cus, freq, bw = hot[int(rng.choice(len(hot), p=zipf))]
            request = PointRequest(profile, cus, freq, bw, **common)
        elif kind == "distinct":
            request = PointRequest(
                pick(profiles), int(pick(_CU_FINE)), float(pick(_FREQ_FINE)),
                float(pick(_BW_FINE)), **common,
            )
        elif kind == "sweep":
            count = int(rng.integers(1, 4))
            picks = sorted(int(p) for p in rng.choice(
                len(profiles), size=count, replace=False))
            request = SweepRequest(
                tuple(profiles[p] for p in picks),
                spaces[int(rng.integers(len(spaces)))], **common,
            )
        else:
            trace = TraceGenerator(
                pick(profiles), seed=int(rng.integers(2**31))
            ).generate(SIM_ACCESSES)
            request = SimulateRequest(trace, **common)
        out.append((Arrival(at=float(at[i]), request=request), kind))
    return out


async def drive(service, arrivals, clock=time.monotonic):
    """Open-loop generator: submit each request when it is due.

    Returns ``(records, late)``: per request ``(response, due,
    latency_s)`` with latency timed from the due time, and how late the
    generator issued each request.
    """

    async def one(request, due):
        response = await service.submit(request)
        return response, due, clock() - due

    start = clock() + 0.01
    tasks, late = [], []
    for arrival in arrivals:
        due = start + arrival.at
        wait = due - clock()
        if wait > 0:
            await asyncio.sleep(wait)
        late.append(clock() - due)
        tasks.append(asyncio.ensure_future(one(arrival.request, due)))
    return await asyncio.gather(*tasks), late


def same_answer(value, oracle) -> bool:
    """Bit-identity of a served value and the serial oracle's."""
    if isinstance(oracle, PointResult):
        return value == oracle
    if isinstance(oracle, DseResult):
        return (
            value.best_mean_index == oracle.best_mean_index
            and value.per_app_best_index == oracle.per_app_best_index
            and all(
                np.array_equal(value.performance[n], oracle.performance[n])
                and np.array_equal(value.node_power[n], oracle.node_power[n])
                and np.array_equal(value.feasible[n], oracle.feasible[n])
                for n in oracle.performance
            )
        )
    return value == oracle


def _requested_points(request) -> int:
    if isinstance(request, SweepRequest):
        return len(request.profiles) * request.space.size
    return 1 if isinstance(request, PointRequest) else 0


def _p(values, q):
    """Percentile without interpolation."""
    if not len(values):
        return 0.0
    return float(np.percentile(values, q, method="higher"))


class Workload:
    def __init__(self):
        self.pool = None

    def prepare(self, seed: int, size: str) -> None:
        self.stream = make_arrivals(seed, N_REQUESTS[size])

    def build(self) -> None:
        self.model = NodeModel()
        self.pool = ShardedPool(pool_shards())
        self.service = EvalService(model=self.model, pool=self.pool)

    def run(self, recorder=None):
        arrivals = [a for a, _ in self.stream]

        async def main():
            async with self.service:
                records, late = await drive(self.service, arrivals)
                stats = self.service.stats()
            return records, late, stats

        self.records, self.late, self.stats = asyncio.run(main())
        return self._latencies_ms()

    def _latencies_ms(self) -> list[float]:
        # A request not answered ok is charged at least its deadline: a
        # shed answer is fast, but it is no answer. The failure itself is
        # counted by ``check``.
        return [
            lat * 1e3 if resp.status == OK else max(lat, DEADLINE_S) * 1e3
            for resp, _due, lat in self.records
        ]

    def check(self) -> tuple[int, int, int]:
        """Every ok answer against the serial oracle. Returns
        ``(attempted, failed, wrong)``: a request that was shed or
        expired counts as failed; one that failed inside the service, or
        was answered ok but not bit-identical to the oracle, counts as
        failed and wrong."""
        failed = wrong = 0
        for (arrival, _kind), (resp, _due, _lat) in zip(
            self.stream, self.records
        ):
            if resp.status == FAILED:
                failed += 1
                wrong += 1
            elif resp.status != OK:
                failed += 1
            elif not same_answer(
                resp.value, serial_answer(arrival.request, self.model)
            ):
                failed += 1
                wrong += 1
        return len(self.records), failed, wrong

    def layer_metrics(self) -> dict[str, float]:
        paths = [resp.path for resp, _, _ in self.records]
        statuses = [resp.status for resp, _, _ in self.records]
        by_kind: dict[str, list[float]] = {"point": [], "sweep": [],
                                           "simulate": []}
        admit, requested = [], 0
        for (arrival, kind), (resp, due, lat) in zip(
            self.stream, self.records
        ):
            if resp.status != OK:
                continue
            label = "point" if kind in ("hot", "distinct") else kind
            by_kind[label].append(lat * 1e3)
            admit.append((resp.admitted_at - due) * 1e3)
            if resp.path in ("coalesced", "degraded"):
                requested += _requested_points(arrival.request)
        latencies = self._latencies_ms()
        batched = sum(p in ("coalesced", "degraded", "solo") for p in paths)
        batches = int(self.stats.get("batches", 0))
        return {
            "serve.batches": batches,
            "serve.requests_per_batch": batched / batches if batches else 0.0,
            "serve.path.inline": paths.count("inline-cache"),
            "serve.path.coalesced": paths.count("coalesced"),
            "serve.path.degraded": paths.count("degraded"),
            "serve.path.solo": paths.count("solo"),
            "serve.shed": sum(
                s in (SHED_DEADLINE, SHED_QUEUE_FULL) for s in statuses),
            "serve.expired": statuses.count(EXPIRED),
            "serve.admit_delay_p99_ms": _p(admit, 99),
            "serve.mean_ms": float(np.mean(latencies)),
            "serve.p90_ms": _p(latencies, 90),
            "serve.p99_ms": _p(latencies, 99),
            "serve.point_p50_ms": _p(by_kind["point"], 50),
            "serve.sweep_p50_ms": _p(by_kind["sweep"], 50),
            "serve.simulate_p50_ms": _p(by_kind["simulate"], 50),
            "serve.requested_points": requested,
            "loadgen.late_p99_ms": _p(self.late, 99) * 1e3,
            "loadgen.late_max_ms": max(self.late, default=0.0) * 1e3,
        }

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
