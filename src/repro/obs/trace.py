"""Span tracing with Chrome trace-event output.

A :class:`Tracer` records each span as one tuple — name, category, raw
start and end clock readings, thread id, args — and builds the Chrome
trace-event dicts only on export (:attr:`Tracer.events`,
:meth:`Tracer.to_chrome`, :meth:`Tracer.write`), so a run's timeline
opens directly in ``chrome://tracing`` or https://ui.perfetto.dev.

Two kinds of span:

* **Complete** (``"ph": "X"``) — a ``with span(...)`` block. Spans on
  one thread nest by time, which is how the Chrome format reads them;
  no parent ids are kept.
* **Async** (``"ph": "b"``/``"e"`` pairs keyed by an id) — an interval
  whose end is known only later, recorded once it ends with
  :meth:`Tracer.async_span` from two raw :meth:`Tracer.now` readings.
  The serving layer records each request and its queue wait this way,
  keyed by the request's ticket seq; pairs with the same category and
  id nest into one async track.

Spans recorded in another process (the pool's worker tasks) come back
as Chrome dicts through :meth:`Tracer.extend`.

Tracing is opt-in where metrics are always-on: the instrumented layers
call the module-level :func:`span`, which is a shared no-op context
manager until someone installs a tracer with :func:`trace` (the CLI's
``--trace-out`` does exactly that). The clock is injected — pass any
zero-argument callable returning seconds — so tests drive spans with a
fake clock and assert exact timestamps.

Typical use::

    from repro.obs import trace as otrace

    with otrace.trace() as tracer:          # activates a Tracer
        with otrace.span("dse.explore"):    # recorded
            ...
    tracer.write("trace.json")              # open in Perfetto

Instrumented library code only ever calls :func:`span`; it never pays
more than one module-attribute read when no tracer is active.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from threading import get_ident
from time import perf_counter
from typing import Callable, Iterator

__all__ = ["Tracer", "span", "trace", "active_tracer"]


class _Span:
    """One open complete span; appends its record on exit."""

    __slots__ = ("_spans", "_clock", "_name", "_cat", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._spans = tracer._spans
        self._clock = tracer._clock
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> None:
        self._start = self._clock()

    def __exit__(self, exc_type, exc, tb) -> None:
        self._spans.append((
            self._name, self._cat, self._start, self._clock(), get_ident(),
            self._args,
        ))


class Tracer:
    """Collects span records and exports them as Chrome trace events.

    Parameters
    ----------
    clock:
        Zero-argument callable returning seconds. Defaults to
        ``time.perf_counter``; tests inject a fake for deterministic
        timestamps. Event timestamps are microseconds relative to the
        tracer's construction instant.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock if clock is not None else perf_counter
        self._t0 = self._clock()
        self._pid = os.getpid()
        # (name, cat, start, end, tid, args)
        self._spans: list[tuple] = []
        # (name, cat, start, end, tid, args, key)
        self._async: list[tuple] = []
        self._foreign: list[dict] = []

    def now(self) -> float:
        """A raw reading of the tracer's clock (seconds), for the
        endpoints of an :meth:`async_span`."""
        return self._clock()

    def span(self, name: str, cat: str = "repro", **args) -> _Span:
        """Record the enclosed block as one complete ("X") event."""
        return _Span(self, name, cat, args)

    def async_span(
        self, name: str, start: float, end: float, key: int,
        cat: str = "repro", **args,
    ) -> None:
        """Record an async begin/end pair with Chrome ``id`` *key* from
        two raw :meth:`now` readings, once the interval has ended."""
        self._async.append(
            (name, cat, start, end, get_ident(), args, key)
        )

    def extend(self, events: list[dict]) -> None:
        """Append foreign trace events (e.g. shipped back from a worker
        process by the pool).

        Events are taken as-is: each already carries its own ``pid``,
        so Perfetto renders them as separate process tracks. Their
        timestamps are relative to the *originating* tracer's
        construction instant — per-track timelines are exact,
        cross-process alignment is not.
        """
        self._foreign.extend(events)

    def clear(self) -> None:
        """Drop every record; the timeline origin stays."""
        self._spans.clear()
        self._async.clear()
        self._foreign.clear()

    @property
    def events(self) -> list[dict]:
        """The records as Chrome trace-event dicts: complete events in
        the order their spans closed, then async pairs, then foreign
        events."""
        t0, pid = self._t0, self._pid
        out = []
        for name, cat, start, end, tid, args in list(self._spans):
            out.append({
                "name": name, "cat": cat, "ph": "X",
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "pid": pid, "tid": tid, "args": args,
            })
        for name, cat, start, end, tid, args, key in list(self._async):
            common = {
                "name": name, "cat": cat, "id": key, "pid": pid, "tid": tid,
            }
            out.append(
                {**common, "ph": "b", "ts": (start - t0) * 1e6, "args": args}
            )
            out.append({**common, "ph": "e", "ts": (end - t0) * 1e6})
        out.extend(self._foreign)
        return out

    def to_chrome(self) -> dict:
        """The JSON-object form of the Chrome trace-event format."""
        return {"traceEvents": self.events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        """Serialize to *path* (compact JSON; loads in Perfetto)."""
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                self.to_chrome(),
                fh,
                separators=(",", ":"),
                default=str,
            )
            fh.write("\n")


_active: Tracer | None = None


class _NullSpan:
    """Stateless reusable no-op context manager (the inactive path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def active_tracer() -> Tracer | None:
    """The currently installed tracer, if any."""
    return _active


def span(name: str, cat: str = "repro", **args):
    """Span against the active tracer; a shared no-op when none is.

    This is the only call instrumented library code makes, so its
    inactive cost is one module-attribute read plus returning a
    singleton.
    """
    tracer = _active
    if tracer is None:
        return _NULL_SPAN
    return _Span(tracer, name, cat, args)


@contextmanager
def trace(
    clock: Callable[[], float] | None = None,
    tracer: Tracer | None = None,
) -> Iterator[Tracer]:
    """Install a tracer for the enclosed block and yield it.

    Nestable: the previous tracer (if any) is restored on exit, so a
    library-level ``trace()`` inside a CLI-level one shadows rather
    than clobbers.
    """
    global _active
    installed = tracer if tracer is not None else Tracer(clock=clock)
    previous = _active
    _active = installed
    try:
        yield installed
    finally:
        _active = previous
