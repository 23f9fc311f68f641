"""Serve benchmark: sustained throughput and tail latency under load.

Two measurements, matching the check_serve gate:

* **Capacity (closed-loop burst)** — submit every request at once and
  measure wall time; compared against the *naive baseline* that issues
  one ``pool.run`` round-trip per request with no coalescing and no
  inline cache. The gate requires the warm batched service
  to sustain ≥5x the naive rate.
* **Open-loop rated load** — replay a Poisson arrival schedule at a
  configured rate and measure p50/p99 latency, shed and expiry counts.
  The gate requires p99 within the configured deadline with <1% shed.

Latency is timed from each request's scheduled arrival to its
response, so a request submitted late, or admitted behind a batch the
event loop is running, is charged for the wait. How late the load
generator itself issued each submit is reported beside it
(``late_p99_ms``), so a late timer wake-up is not read as the service's
own latency.

``python -m repro serve`` routes here.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.core.node import NodeModel
from repro.obs.export import PeriodicSampler
from repro.perf.pool import PoolTask, ShardedPool
from repro.serve.requests import (
    OK,
    PointRequest,
    ServeResponse,
    SweepRequest,
)
from repro.serve.service import EvalService, _model_key
from repro.serve.workload import Arrival, synthetic_arrivals
from repro.workloads.kernels import profile_key

__all__ = ["ServeBenchReport", "run_arrivals", "run_serve_bench"]


@dataclass(frozen=True)
class ServeBenchReport:
    """Outcome of one serve benchmark run."""

    n_requests: int
    wall_s: float
    throughput_rps: float
    p50_ms: float
    p99_ms: float
    late_p99_ms: float
    ok: int
    shed: int
    expired: int
    failed: int
    inline_hits: int
    coalesced: int
    degraded: int
    solo: int
    batches: int
    pool_worker_restarts: int
    baseline_rps: float | None = None
    speedup: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def shed_fraction(self) -> float:
        """Shed + expired share of all requests."""
        if not self.n_requests:
            return 0.0
        return (self.shed + self.expired) / self.n_requests

    def as_dict(self) -> dict:
        out = {
            k: getattr(self, k)
            for k in (
                "n_requests", "wall_s", "throughput_rps", "p50_ms",
                "p99_ms", "late_p99_ms", "ok", "shed", "expired", "failed",
                "inline_hits", "coalesced", "degraded", "solo",
                "batches", "pool_worker_restarts", "baseline_rps",
                "speedup",
            )
        }
        out["shed_fraction"] = self.shed_fraction
        out.update(self.extra)
        return out

    def render(self) -> str:
        lines = [
            "serve bench:",
            f"  requests      {self.n_requests}  "
            f"(ok {self.ok}, shed {self.shed}, expired {self.expired}, "
            f"failed {self.failed})",
            f"  wall          {self.wall_s * 1e3:.1f} ms  "
            f"({self.throughput_rps:.0f} req/s)",
            f"  latency       p50 {self.p50_ms:.2f} ms, "
            f"p99 {self.p99_ms:.2f} ms  (submits late p99 "
            f"{self.late_p99_ms:.2f} ms)",
            f"  paths         inline {self.inline_hits}, "
            f"coalesced {self.coalesced}, degraded {self.degraded}, "
            f"solo {self.solo}  ({self.batches} batches)",
        ]
        if self.baseline_rps is not None:
            lines.append(
                f"  naive base    {self.baseline_rps:.0f} req/s  "
                f"-> {self.speedup:.1f}x"
            )
        return "\n".join(lines)


async def _replay(
    service: EvalService, arrivals: Sequence[Arrival]
) -> list[tuple[ServeResponse, float, float]]:
    """Submit *arrivals* on their open-loop schedule; returns each
    response with its latency from the scheduled arrival and how late
    its submit was issued, in arrival order."""
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def one(arrival: Arrival) -> tuple[ServeResponse, float, float]:
        due = start + arrival.at
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        late = loop.time() - due
        response = await service.submit(arrival.request)
        return response, loop.time() - due, late

    return list(
        await asyncio.gather(*(one(a) for a in arrivals))
    )


def _report(
    arrivals: Sequence[Arrival],
    timed: Sequence[tuple[ServeResponse, float, float]],
    wall_s: float,
    stats: dict,
) -> ServeBenchReport:
    responses = [r for r, _, _ in timed]
    latencies = [lat for r, lat, _ in timed if r.status == OK]
    lat_ms = (
        np.asarray(latencies) * 1e3 if latencies else np.zeros(1)
    )
    late_ms = np.asarray([late for _, _, late in timed] or [0.0]) * 1e3
    paths = [r.path for r in responses]
    shed = sum(
        1 for r in responses if r.status.startswith("shed")
    )
    return ServeBenchReport(
        n_requests=len(arrivals),
        wall_s=wall_s,
        throughput_rps=len(arrivals) / wall_s if wall_s > 0 else 0.0,
        p50_ms=float(np.percentile(lat_ms, 50)),
        p99_ms=float(np.percentile(lat_ms, 99)),
        late_p99_ms=float(np.percentile(late_ms, 99)),
        ok=sum(1 for r in responses if r.status == OK),
        shed=shed,
        expired=sum(1 for r in responses if r.status == "expired"),
        failed=sum(1 for r in responses if r.status == "failed"),
        inline_hits=paths.count("inline-cache"),
        coalesced=paths.count("coalesced"),
        degraded=paths.count("degraded"),
        solo=paths.count("solo"),
        batches=int(stats.get("batches", 0)),
        pool_worker_restarts=int(stats.get("pool_worker_restarts", 0)),
    )


def run_arrivals(
    arrivals: Sequence[Arrival],
    *,
    model: NodeModel | None = None,
    pool: ShardedPool | None = None,
    cache: dict | None = None,
) -> ServeBenchReport:
    """Run one arrival trace through a fresh service; returns a report."""

    async def main() -> ServeBenchReport:
        service = EvalService(model=model, pool=pool, cache=cache)
        async with service:
            start = time.perf_counter()
            timed = await _replay(service, arrivals)
            wall = time.perf_counter() - start
            stats = service.stats()
        return _report(arrivals, timed, wall, stats)

    return asyncio.run(main())


# Each pool worker's grids, keyed like the service's answer memo, for
# the life of the worker: the baseline is cold on its first repeat and
# warm after it. A baseline cold on every repeat would be slower, and
# would raise the capacity ratio check_serve gates on.
_naive_grids: dict = {}


def _naive_eval_grid(model, profiles, space):
    """One whole grid through the worker's memo: ``(performance,
    power)``."""
    key = (_model_key(model), tuple(map(profile_key, profiles)), space)
    grid = _naive_grids.get(key)
    if grid is None:
        grid = _naive_grids[key] = model.evaluate_grid(profiles, space)
    return grid.performance, grid.power


def naive_baseline_rps(
    arrivals: Sequence[Arrival],
    pool: ShardedPool,
    model: NodeModel | None = None,
) -> float:
    """The contrast case: one blocking ``pool.run`` round-trip per
    request, no coalescing, no inline cache."""
    model = model or NodeModel()
    start = time.perf_counter()
    for arrival in arrivals:
        req = arrival.request
        if isinstance(req, PointRequest):
            task = PoolTask(
                fn=_naive_eval_grid,
                args=(model, [req.profile], req.to_space()),
                label="naive-point",
            )
        elif isinstance(req, SweepRequest):
            task = PoolTask(
                fn=_naive_eval_grid,
                args=(model, list(req.profiles), req.space),
                label="naive-sweep",
            )
        else:
            continue
        pool.run([task])
    wall = time.perf_counter() - start
    return len(arrivals) / wall if wall > 0 else 0.0


def run_serve_bench(
    *,
    seed: int = 0,
    n_requests: int = 200,
    rate_hz: float | None = None,
    deadline_s: float | None = 0.25,
    baseline: bool = False,
    metrics_export: str | None = None,
) -> ServeBenchReport:
    """The full serve benchmark: warm cache pass, measured pass,
    optional naive-baseline contrast on a 2-worker pool.

    The synthetic mix has no trace simulations, so the service never
    hands a pool a task; the pool is spawned only when the baseline is
    requested, at the start, so its workers have booted before the
    baseline is timed.

    ``rate_hz=None`` is the closed-loop capacity measurement; a rate
    makes it the open-loop tail-latency measurement. *metrics_export*
    streams interval metric diffs for the measured pass to a JSONL
    path (plus a final cumulative ``.prom`` snapshot next to it).
    """
    arrivals = synthetic_arrivals(
        seed, n_requests, rate_hz=rate_hz, deadline_s=deadline_s
    )
    cache: dict = {}
    model = NodeModel()
    pool = ShardedPool(2) if baseline else None
    sampler: PeriodicSampler | None = None
    try:
        # Warm pass: the same requests in one burst, without their
        # deadlines (at 250 ms a 200-request burst sheds 76 of them),
        # so the memo holds every distinct template before measurement.
        run_arrivals(
            [
                Arrival(0.0, replace(a.request, deadline_s=None))
                for a in arrivals
            ],
            model=model,
            pool=pool,
            cache=cache,
        )
        if metrics_export:
            # Started after the warm pass and stopped before the
            # baseline: the export covers the measured pass only.
            sampler = PeriodicSampler(metrics_export, interval_s=0.25)
            sampler.start()
        report = run_arrivals(arrivals, model=model, pool=pool, cache=cache)
        if sampler is not None:
            sampler.stop()
        if baseline:
            base_rps = naive_baseline_rps(arrivals, pool, model)
            report = replace(
                report,
                baseline_rps=base_rps,
                speedup=(
                    report.throughput_rps / base_rps
                    if base_rps > 0
                    else None
                ),
            )
        return report
    finally:
        if sampler is not None:
            sampler.stop()
        if pool is not None:
            pool.shutdown()
