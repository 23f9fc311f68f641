"""Deterministic load harness for the serving layer's sans-io core.

The asyncio service is a thin real-clock driver around
:class:`repro.serve.batcher.BatcherCore`; every interesting decision —
admission, queue-full shed, deadline shed, expiry, batch formation,
ordered release — lives in the core and is a pure function of the
arrival trace and the policy. This harness replays an arrival schedule
against the core with a :class:`FakeClock` and a *modeled* batch
service time, producing a flat transcript of every event. Because no
real clock, thread, or process is involved, the transcript is
**bit-for-bit reproducible**: the same (arrivals, policy, cost model)
triple yields the same transcript on every run, on every machine —
which is what lets CI assert on exact shed/expiry/batching decisions
instead of sleeping and hoping.

Timing model: a single dispatcher plans a batch as soon as the queue
is non-empty and the dispatcher is free (arrivals at that same instant
join it, as a gathered burst does in the service), then executes it for
``service_time(planned)`` seconds. Arrivals scheduled during an
execution are admitted at their own timestamps, and their outcomes
drain after the batch completes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.serve.batcher import BatcherCore, PlannedBatch
from repro.serve.requests import OK

__all__ = ["FakeClock", "BatchCostModel", "ServeHarness", "run_trace"]


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("time only moves forward")
        self._now += dt
        return self._now

    def set(self, t: float) -> float:
        if t < self._now:
            raise ValueError("time only moves forward")
        self._now = float(t)
        return self._now


@dataclass(frozen=True)
class BatchCostModel:
    """Affine modeled execution time for one planned batch:
    ``base_s + per_request_s * len(tickets)``."""

    base_s: float = 1e-3
    per_request_s: float = 2e-3

    def __call__(self, planned: PlannedBatch) -> float:
        return self.base_s + self.per_request_s * len(planned.tickets)


@dataclass
class ServeHarness:
    """Drive a :class:`BatcherCore` through an arrival trace.

    Parameters
    ----------
    core:
        The state machine under test (fresh per run for determinism).
    service_time:
        ``PlannedBatch -> seconds`` cost model for batch execution.
    group_key / stream_of / deadline_of / value_of:
        Request adapters. Defaults read ``request.stream`` /
        ``request.deadline_s`` when present and answer every request
        with ``("answer", seq)``.
    on_batch:
        Optional hook called with each completed ``(planned, dt)`` —
        the adaptive-policy tests feed the policy's ``observe`` here.
    """

    core: BatcherCore
    service_time: Callable[[PlannedBatch], float] = BatchCostModel()
    group_key: Callable[[Any], Any] = lambda request: None
    stream_of: Callable[[Any], str] = (
        lambda request: getattr(request, "stream", "default")
    )
    deadline_of: Callable[[Any], float | None] = (
        lambda request: getattr(request, "deadline_s", None)
    )
    value_of: Callable[[Any, int], Any] = (
        lambda request, seq: ("answer", seq)
    )
    on_batch: Callable[[PlannedBatch, float], None] | None = None
    transcript: list[tuple] = field(default_factory=list)

    def _drain(self) -> None:
        for outcome in self.core.poll_outcomes():
            self.transcript.append(
                (
                    round(outcome.completed_at, 9),
                    "outcome",
                    outcome.ticket.seq,
                    outcome.ticket.stream,
                    outcome.ticket.stream_seq,
                    outcome.status,
                    outcome.batch_id,
                )
            )

    def _admit(self, clock: FakeClock, at: float, request: Any) -> None:
        clock.set(at)
        ticket = self.core.admit(
            request,
            clock.now,
            stream=self.stream_of(request),
            deadline_s=self.deadline_of(request),
            group_key=self.group_key(request),
        )
        accepted = ticket.stream_seq >= 0
        self.transcript.append(
            (
                round(clock.now, 9),
                "admit" if accepted else "shed",
                ticket.seq,
                ticket.stream,
                ticket.stream_seq,
            )
        )
        self._drain()

    def run(self, arrivals: Sequence) -> list[tuple]:
        """Replay *arrivals* (``Arrival``-like, sorted by ``.at``) to
        completion; returns the transcript."""
        clock = FakeClock()
        i = 0
        n = len(arrivals)
        while i < n or self.core.depth() > 0:
            if self.core.depth() == 0:
                # Idle dispatcher: jump to the next arrival.
                self._admit(clock, arrivals[i].at, arrivals[i].request)
                i += 1
                continue
            # Queue is non-empty: the dispatcher plans now, with every
            # arrival due at this instant.
            while i < n and arrivals[i].at <= clock.now:
                self._admit(clock, arrivals[i].at, arrivals[i].request)
                i += 1
            planned = self.core.plan(clock.now)
            self._drain()
            if planned is None:  # everything expired at plan time
                continue
            self.transcript.append(
                (
                    round(clock.now, 9),
                    "dispatch",
                    planned.batch_id,
                    tuple(t.seq for t in planned.tickets),
                )
            )
            dt = float(self.service_time(planned))
            if not math.isfinite(dt) or dt < 0:
                raise ValueError("service_time must be finite and >= 0")
            done_at = clock.now + dt
            # The event loop keeps admitting while the batch executes.
            while i < n and arrivals[i].at <= done_at:
                self._admit(clock, arrivals[i].at, arrivals[i].request)
                i += 1
            clock.set(done_at)
            results = {
                t.seq: (OK, (self.value_of(t.request, t.seq), "coalesced"))
                for t in planned.tickets
            }
            self.core.complete(planned.batch_id, results, clock.now)
            if self.on_batch is not None:
                self.on_batch(planned, dt)
            self.transcript.append(
                (round(clock.now, 9), "complete", planned.batch_id)
            )
            self._drain()
        self.core.flush(clock.now)
        self._drain()
        return self.transcript


def run_trace(arrivals: Sequence, *, policy=None, max_queue: int = 1024,
              **kwargs) -> list[tuple]:
    """One-shot convenience: fresh core, fresh harness, one transcript."""
    core = BatcherCore(policy, max_queue=max_queue)
    return ServeHarness(core, **kwargs).run(arrivals)
