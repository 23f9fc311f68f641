"""Adaptive batch sizing from measured batch times.

The batcher needs two numbers: how many requests to coalesce per
dispatch, and how long one queued request is expected to take (the
deadline-shedding estimate). Both come from the batches this policy's
service has run: the dispatcher times every batch and reports it
through :meth:`AdaptiveBatchPolicy.observe`, and the running ratio of
batch seconds to requests served is the measured warm per-request
service time.

The sizing rule::

    est  = sum(batch_seconds) / sum(batch_requests)   (measured)
    size = clamp(target_batch_seconds / est, min_batch, max_batch)

i.e. the batch is sized so one dispatch occupies the service for
about ``target_batch_seconds`` — long enough to amortize the
per-batch planning and grid setup, short enough that a batch never
holds the queue hostage for a deadline-sized chunk of time. A cold policy (no
observations yet) falls back to ``default_request_seconds``.

The estimate belongs to the policy, so each service learns from its
own batches alone, whether or not metrics are enabled.
"""

from __future__ import annotations

import math

from repro.core.config import _finite_positive, _is_int

__all__ = ["AdaptiveBatchPolicy"]


class AdaptiveBatchPolicy:
    """Measurement-driven sizing policy for :class:`BatcherCore`.

    Parameters
    ----------
    min_batch / max_batch:
        Clamp bounds on the batch limit.
    target_batch_seconds:
        Desired wall time of one dispatched batch.
    default_request_seconds:
        Cold-start per-request estimate, used until the first batch
        completes.
    dispatch_overhead_s:
        Fixed per-dispatch overhead added to the admission estimate
        (planning, plus the pool round-trip when a batch has pool
        tasks).
    """

    def __init__(
        self,
        *,
        min_batch: int = 1,
        max_batch: int = 64,
        target_batch_seconds: float = 0.02,
        default_request_seconds: float = 2e-3,
        dispatch_overhead_s: float = 1e-3,
    ):
        if not (
            _is_int(min_batch) and _is_int(max_batch)
            and 1 <= min_batch <= max_batch
        ):
            raise ValueError("need integers 1 <= min_batch <= max_batch")
        if not (
            _finite_positive(target_batch_seconds)
            and _finite_positive(default_request_seconds)
        ):
            raise ValueError("time parameters must be finite and positive")
        if not 0 <= dispatch_overhead_s < math.inf:
            raise ValueError("dispatch_overhead_s must be finite and >= 0")
        self.min_batch = int(min_batch)
        self.max_batch = int(max_batch)
        self.target_batch_seconds = float(target_batch_seconds)
        self.default_request_seconds = float(default_request_seconds)
        self.dispatch_overhead_s = float(dispatch_overhead_s)
        self._est = self.default_request_seconds
        self._seconds = 0.0
        self._requests = 0

    def observe(self, batch_seconds: float, requests: int) -> None:
        """Fold one completed batch into the per-request estimate."""
        self._seconds += batch_seconds
        self._requests += requests
        if self._requests > 0:
            self._est = max(1e-9, self._seconds / self._requests)

    def est_request_seconds(self) -> float:
        """Measured (or default) per-request service time."""
        return self._est

    def batch_limit(self) -> int:
        """Batch size targeting :attr:`target_batch_seconds` per
        dispatch, clamped to ``[min_batch, max_batch]``."""
        size = int(self.target_batch_seconds / self._est)
        return max(self.min_batch, min(self.max_batch, size))
