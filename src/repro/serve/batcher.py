"""Deterministic batching state machine (sans-io core).

The serving front-end splits into two halves so its decisions are
testable bit-for-bit: this module is the synchronous core — admission,
backpressure, deadline shedding, batch formation, expiry, per-stream
ordered release — driven entirely by explicit ``now`` timestamps, and
:mod:`repro.serve.service` is the thin asyncio driver that feeds it the
real clock. The test harness (``tests/serve_harness.py``) drives the
core with a fake clock instead, so CI replays the exact same decision
sequence for a given arrival trace, every run, on every machine.

Life of a request::

    admit(now) ──► shed-queue-full / shed-deadline   (outcome, no queue)
        │
        ▼ queued (FIFO)
    plan(now) ──► expired                            (deadline passed)
        │
        ▼ PlannedBatch (≤ policy.batch_limit(), grouped by group_key)
    complete(batch_id, results, now) ──► ok / failed
        │
        ▼ per-stream release buffer
    poll_outcomes() ──► outcomes, within-stream admission order

``admit_completed`` is the inline fast path (cache hits): the request
joins the stream's ordering domain and completes in the same call, so
an inline answer still cannot overtake an earlier queued request of
its own stream.

The core never loses, duplicates, or reorders-within-stream a request,
and every shed request gets an explicit rejection outcome — the
hypothesis suite in ``tests/test_serve_properties.py`` hammers exactly
these invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.config import _is_int
from repro.serve.requests import (
    EXPIRED,
    FAILED,
    OK,
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    SHUTDOWN,
)

__all__ = ["Ticket", "Outcome", "PlannedBatch", "FixedPolicy", "BatcherCore"]


@dataclass(frozen=True)
class Ticket:
    """One admitted-or-shed request's identity inside the core.

    ``seq`` is the global admission sequence number (unique, dense);
    ``stream_seq`` is the request's position among *accepted* requests
    of its stream (``-1`` for admission-shed requests, which never join
    the ordering domain).
    """

    seq: int
    stream: str
    stream_seq: int
    request: Any
    group_key: Any
    admitted_at: float
    deadline_at: float | None


@dataclass(frozen=True)
class Outcome:
    """Terminal result of one ticket, released by :meth:`poll_outcomes`."""

    ticket: Ticket
    status: str
    value: Any = None
    error: BaseException | None = None
    batch_id: int | None = None
    completed_at: float = 0.0
    path: str = ""


@dataclass(frozen=True)
class PlannedBatch:
    """One dispatchable batch: tickets grouped by coalescing key."""

    batch_id: int
    tickets: tuple[Ticket, ...]
    groups: Mapping[Any, tuple[Ticket, ...]]


@dataclass
class FixedPolicy:
    """Constant-parameter sizing policy (tests, and the adaptive
    policy's fallback shape).

    The deterministic admission estimate is
    ``now + dispatch_overhead_s + est_request_seconds * (depth + 1)``
    — a serial-drain model: pessimistic about batching speedup,
    which is the right bias for a shed decision (shedding late is
    worse than shedding early under open-loop load).
    """

    batch: int = 8
    est_request_s: float = 2e-3
    dispatch_overhead_s: float = 1e-3

    def __post_init__(self) -> None:
        if not (_is_int(self.batch) and self.batch > 0):
            raise ValueError("batch must be a positive integer")
        # A NaN overhead would compare false and switch deadline
        # shedding off.
        for name in ("est_request_s", "dispatch_overhead_s"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")

    def batch_limit(self) -> int:
        return self.batch

    def est_request_seconds(self) -> float:
        return max(1e-9, float(self.est_request_s))

    def observe(self, batch_seconds: float, requests: int) -> None:
        """No-op (the parameters are constant); the service calls it
        after every batch, as it does the adaptive policy's."""


class BatcherCore:
    """The deterministic admission/batching/release state machine.

    Parameters
    ----------
    policy:
        Object with ``batch_limit() -> int``, ``est_request_seconds()
        -> float`` and a ``dispatch_overhead_s`` attribute
        (:class:`FixedPolicy` or
        :class:`repro.serve.adaptive.AdaptiveBatchPolicy`).
    max_queue:
        Bound on queued (admitted, not yet dispatched) requests;
        admission beyond it sheds with :data:`SHED_QUEUE_FULL`.
    """

    def __init__(self, policy=None, *, max_queue: int = 1024):
        if not (_is_int(max_queue) and max_queue > 0):
            raise ValueError("max_queue must be a positive integer")
        self.policy = policy if policy is not None else FixedPolicy()
        self.max_queue = int(max_queue)
        self._seq = 0
        self._batch_ids = 0
        self._queue: list[Ticket] = []
        self._inflight: dict[int, PlannedBatch] = {}
        # Per-stream ordering domain: next stream_seq to assign / emit,
        # and completed-but-unreleased outcomes keyed by stream_seq.
        self._stream_next: dict[str, int] = {}
        self._stream_emit: dict[str, int] = {}
        self._held: dict[str, dict[int, Outcome]] = {}
        self._ready: list[Outcome] = []
        self.stats: dict[str, int] = {
            "admitted": 0,
            "accepted": 0,
            "inline": 0,
            "shed_queue_full": 0,
            "shed_deadline": 0,
            "expired": 0,
            "completed_ok": 0,
            "failed": 0,
            "shutdown": 0,
            "batches": 0,
        }

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Queued (not yet dispatched) request count."""
        return len(self._queue)

    def inflight(self) -> int:
        """Dispatched, not yet completed request count."""
        return sum(len(b.tickets) for b in self._inflight.values())

    def _next_ticket(
        self,
        request: Any,
        now: float,
        *,
        stream: str,
        deadline_s: float | None,
        group_key: Any,
        accepted: bool,
    ) -> Ticket:
        seq = self._seq
        self._seq += 1
        if accepted:
            stream_seq = self._stream_next.get(stream, 0)
            self._stream_next[stream] = stream_seq + 1
        else:
            stream_seq = -1
        deadline_at = None if deadline_s is None else now + float(deadline_s)
        return Ticket(
            seq=seq,
            stream=stream,
            stream_seq=stream_seq,
            request=request,
            group_key=group_key,
            admitted_at=now,
            deadline_at=deadline_at,
        )

    def admit(
        self,
        request: Any,
        now: float,
        *,
        stream: str = "default",
        deadline_s: float | None = None,
        group_key: Any = None,
    ) -> Ticket:
        """Admit one request; queues it or sheds it with an explicit
        rejection outcome (poll :meth:`poll_outcomes` either way)."""
        self.stats["admitted"] += 1
        if len(self._queue) >= self.max_queue:
            ticket = self._next_ticket(
                request, now, stream=stream, deadline_s=deadline_s,
                group_key=group_key, accepted=False,
            )
            self.stats["shed_queue_full"] += 1
            self._ready.append(
                Outcome(ticket, SHED_QUEUE_FULL, completed_at=now)
            )
            return ticket
        if deadline_s is not None:
            est = (
                now
                + float(self.policy.dispatch_overhead_s)
                + self.policy.est_request_seconds() * (len(self._queue) + 1)
            )
            if est > now + float(deadline_s):
                ticket = self._next_ticket(
                    request, now, stream=stream, deadline_s=deadline_s,
                    group_key=group_key, accepted=False,
                )
                self.stats["shed_deadline"] += 1
                self._ready.append(
                    Outcome(ticket, SHED_DEADLINE, completed_at=now)
                )
                return ticket
        ticket = self._next_ticket(
            request, now, stream=stream, deadline_s=deadline_s,
            group_key=group_key, accepted=True,
        )
        self.stats["accepted"] += 1
        self._queue.append(ticket)
        return ticket

    def admit_completed(
        self,
        request: Any,
        value: Any,
        now: float,
        *,
        stream: str = "default",
    ) -> Ticket:
        """Inline fast path: admit and complete in one step (cache hit).

        The ticket joins the stream ordering domain, so its outcome is
        held behind any earlier still-pending request of the stream.
        """
        ticket = self._next_ticket(
            request, now, stream=stream, deadline_s=None,
            group_key=None, accepted=True,
        )
        self.stats["admitted"] += 1
        self.stats["accepted"] += 1
        self.stats["inline"] += 1
        self.stats["completed_ok"] += 1
        self._settle(
            Outcome(
                ticket, OK, value=value, completed_at=now,
                path="inline-cache",
            )
        )
        return ticket

    # ------------------------------------------------------------------
    # Batch formation and completion
    # ------------------------------------------------------------------
    def expire(self, now: float) -> int:
        """Drop queued tickets whose deadline has passed; returns the
        number expired."""
        live: list[Ticket] = []
        expired = 0
        for ticket in self._queue:
            if ticket.deadline_at is not None and now > ticket.deadline_at:
                expired += 1
                self.stats["expired"] += 1
                self._settle(Outcome(ticket, EXPIRED, completed_at=now))
            else:
                live.append(ticket)
        self._queue = live
        return expired

    def plan(self, now: float) -> PlannedBatch | None:
        """Form the next batch: expire, then take up to
        ``policy.batch_limit()`` tickets FIFO, grouped by ``group_key``
        (``None`` keys stay solo). Returns ``None`` when idle."""
        self.expire(now)
        if not self._queue:
            return None
        limit = max(1, int(self.policy.batch_limit()))
        taken, self._queue = self._queue[:limit], self._queue[limit:]
        groups: dict[Any, list[Ticket]] = {}
        for ticket in taken:
            key = (
                ("solo", ticket.seq)
                if ticket.group_key is None
                else ticket.group_key
            )
            groups.setdefault(key, []).append(ticket)
        batch_id = self._batch_ids
        self._batch_ids += 1
        planned = PlannedBatch(
            batch_id=batch_id,
            tickets=tuple(taken),
            groups={k: tuple(v) for k, v in groups.items()},
        )
        self._inflight[batch_id] = planned
        self.stats["batches"] += 1
        return planned

    def complete(
        self,
        batch_id: int,
        results: Mapping[int, tuple[str, Any]],
        now: float,
    ) -> None:
        """Resolve a planned batch.

        *results* maps ``ticket.seq`` to ``(status, payload)`` where
        payload is the value for :data:`OK` (and carries the ``path``
        label via a ``(value, path)`` tuple when provided) or the
        exception for :data:`FAILED`. Tickets missing from *results*
        fail with a bookkeeping error — a batch never loses a request
        silently.
        """
        planned = self._inflight.pop(batch_id, None)
        if planned is None:
            raise KeyError(f"unknown or already-completed batch {batch_id}")
        for ticket in planned.tickets:
            entry = results.get(ticket.seq)
            if entry is None:
                status, payload = FAILED, RuntimeError(
                    f"batch {batch_id} returned no result for "
                    f"request {ticket.seq}"
                )
            else:
                status, payload = entry
            value, error, path = None, None, ""
            if status == OK:
                self.stats["completed_ok"] += 1
                if isinstance(payload, tuple) and len(payload) == 2:
                    value, path = payload
                else:
                    value = payload
            elif status == FAILED:
                self.stats["failed"] += 1
                error = payload
            elif status == EXPIRED:
                self.stats["expired"] += 1
            elif status == SHUTDOWN:
                self.stats["shutdown"] += 1
                error = payload if isinstance(payload, BaseException) else None
            else:
                raise ValueError(
                    f"invalid completion status {status!r} for "
                    f"request {ticket.seq}"
                )
            self._settle(
                Outcome(
                    ticket,
                    status,
                    value=value,
                    error=error,
                    batch_id=batch_id,
                    completed_at=now,
                    path=path,
                )
            )

    def flush(self, now: float, status: str = SHUTDOWN) -> int:
        """Resolve every queued and in-flight ticket with *status*
        (service shutdown); returns how many were flushed."""
        flushed = 0
        for ticket in self._queue:
            self.stats["shutdown"] += 1
            self._settle(Outcome(ticket, status, completed_at=now))
            flushed += 1
        self._queue = []
        for planned in list(self._inflight.values()):
            self.complete(
                planned.batch_id,
                {t.seq: (status, None) for t in planned.tickets},
                now,
            )
            flushed += len(planned.tickets)
        return flushed

    # ------------------------------------------------------------------
    # Ordered release
    # ------------------------------------------------------------------
    def _settle(self, outcome: Outcome) -> None:
        """Move a terminal outcome into the release path.

        Accepted tickets are buffered until every earlier accepted
        ticket of their stream has settled; admission-shed tickets
        (stream_seq -1) release immediately — they never joined the
        ordering domain.
        """
        if outcome.ticket.stream_seq < 0:
            self._ready.append(outcome)
            return
        stream = outcome.ticket.stream
        held = self._held.setdefault(stream, {})
        held[outcome.ticket.stream_seq] = outcome
        emit = self._stream_emit.get(stream, 0)
        while emit in held:
            self._ready.append(held.pop(emit))
            emit += 1
        self._stream_emit[stream] = emit

    def poll_outcomes(self) -> list[Outcome]:
        """Drain every releasable outcome (within-stream admission
        order; cross-stream order follows settlement order)."""
        ready, self._ready = self._ready, []
        return ready
