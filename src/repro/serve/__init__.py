"""Asyncio serving front-end over the tensor engine and worker pool.

See :mod:`repro.serve.service` for the architecture. Quick start::

    import asyncio
    from repro.perf.pool import ShardedPool
    from repro.serve import EvalService
    from repro.workloads.catalog import APPLICATIONS

    async def main():
        with ShardedPool(4) as pool:
            async with EvalService(pool=pool) as service:
                resp = await service.evaluate(
                    APPLICATIONS["CoMD"], 320, 1.0e9, 3.0e12
                )
                print(resp.status, resp.value)

    asyncio.run(main())
"""

from repro.serve.adaptive import AdaptiveBatchPolicy
from repro.serve.batcher import BatcherCore, FixedPolicy
from repro.serve.requests import (
    STATUSES,
    ExperimentRequest,
    PointRequest,
    PointResult,
    ServeResponse,
    SimulateRequest,
    SweepRequest,
)
from repro.serve.service import EvalService, serial_answer

__all__ = [
    "AdaptiveBatchPolicy",
    "BatcherCore",
    "EvalService",
    "ExperimentRequest",
    "FixedPolicy",
    "PointRequest",
    "PointResult",
    "STATUSES",
    "ServeResponse",
    "SimulateRequest",
    "SweepRequest",
    "serial_answer",
]
