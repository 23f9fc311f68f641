"""Benchmarks for the serving layer (PR 7).

Times the three serve paths the check_serve gate constrains: the warm
coalescing service on a closed-loop burst, the naive
one-``pool.run``-per-request contrast, and the pool-less inline-cache
fast path. A pure :class:`~repro.serve.batcher.BatcherCore`
admit/plan/complete cycle is timed separately so state-machine
overhead is visible apart from evaluation cost. The >=5x and
p99/deadline assertions live in ``benchmarks/check_perf.py
check_serve``.
"""

import asyncio

from repro.core.node import NodeModel
from repro.perf.pool import ShardedPool
from repro.serve.batcher import BatcherCore, FixedPolicy
from repro.serve.bench import naive_baseline_rps, run_arrivals
from repro.serve.requests import OK
from repro.serve.service import EvalService
from repro.serve.workload import synthetic_arrivals

N_REQUESTS = 96


def test_bench_serve_warm_burst(benchmark):
    """Warm coalescing service: 96-request closed-loop burst."""
    model = NodeModel()
    cache: dict = {}
    arrivals = synthetic_arrivals(0, N_REQUESTS, deadline_s=0.25)
    pool = ShardedPool(2)
    try:
        # Two passes outside the timer: seed caches, settle the pool.
        for _ in range(2):
            run_arrivals(arrivals, model=model, pool=pool, cache=cache)
        benchmark.pedantic(
            run_arrivals,
            args=(arrivals,),
            kwargs=dict(model=model, pool=pool, cache=cache),
            rounds=5,
            iterations=1,
        )
    finally:
        pool.shutdown()


def test_bench_serve_naive_baseline(benchmark):
    """The contrast case: one pool.run round-trip per request."""
    model = NodeModel()
    arrivals = synthetic_arrivals(0, N_REQUESTS, deadline_s=0.25)
    pool = ShardedPool(2)
    try:
        naive_baseline_rps(arrivals, pool, model)  # warm worker caches
        benchmark.pedantic(
            naive_baseline_rps,
            args=(arrivals, pool, model),
            rounds=3,
            iterations=1,
        )
    finally:
        pool.shutdown()


def test_bench_serve_inline_path(benchmark):
    """Pool-less service answering a warm burst entirely inline."""
    model = NodeModel()
    cache: dict = {}
    arrivals = synthetic_arrivals(0, N_REQUESTS, deadline_s=0.25)
    run_arrivals(arrivals, model=model, pool=None, cache=cache)

    def burst():
        async def main():
            service = EvalService(model=model, pool=None, cache=cache)
            async with service:
                responses = await asyncio.gather(
                    *(service.submit(a.request) for a in arrivals)
                )
            assert all(r.status == OK for r in responses)

        asyncio.run(main())

    benchmark.pedantic(burst, rounds=5, iterations=1)


def test_bench_batcher_core_cycle(benchmark):
    """Pure state machine: admit 256, plan/complete/release them all."""
    policy = FixedPolicy(batch=16, est_request_s=0.0)

    def cycle():
        core = BatcherCore(policy, max_queue=512)
        now = 0.0
        for i in range(256):
            core.admit(("req", i), now, stream=f"s{i % 4}")
        while core.depth():
            planned = core.plan(now)
            now += 1e-3
            core.complete(
                planned.batch_id,
                {
                    t.seq: (OK, (("ans", t.seq), "coalesced"))
                    for t in planned.tickets
                },
                now,
            )
        outcomes = core.poll_outcomes()
        assert len(outcomes) == 256

    benchmark(cycle)
