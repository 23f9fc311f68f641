"""Rolling-window SLO health tracking for the serving layer.

The metrics registry's histograms accumulate over the whole process
lifetime — the right shape for "where did the time go", the wrong one
for "are we healthy *right now*". An :class:`SloTracker` keeps the last
``window_s`` seconds of per-request outcomes and derives the live
signals an operator pages on:

* latency quantiles (p50/p99) over successful requests in the window,
* shed and error rates over all requests in the window,
* error-budget burn: the fraction of the configured budget (allowed
  bad-request rate) the current window consumes, and what remains.

:class:`~repro.serve.service.EvalService` records every drained outcome
here and republishes the derived values as ``serve.slo.*`` gauges, so
the live export stream (:mod:`repro.obs.export`) and the serve manifest
section both carry them. The clock is injected; tests drive the window
deterministically.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable

from repro.obs import metrics as _metrics

__all__ = ["SloTracker"]

_OK = "ok"
_SHED = "shed"
_ERROR = "error"


def _categorize(status: str) -> str:
    """Collapse a serve response status into ok / shed / error."""
    if status == "ok":
        return _OK
    if status.startswith("shed") or status == "expired":
        return _SHED
    return _ERROR  # failed, shutdown, anything unexpected


def _rank_quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of a sorted sample (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


class SloTracker:
    """Sliding-window request-health accounting.

    Parameters
    ----------
    window_s:
        How much history the rates and quantiles cover.
    target_p99_s:
        The latency objective; :meth:`health` reports whether the
        window's p99 meets it.
    error_budget:
        Allowed bad-request (shed + error) fraction. Budget burn is the
        window's bad rate over this allowance — 1.0 means the window
        exactly exhausts the budget, above 1.0 the SLO is violated.
    clock:
        Zero-argument monotonic-seconds callable (injected in tests).
    registry:
        Where :meth:`publish` writes gauges. ``None`` uses the
        module-level helpers (respecting the global enable flag).
    prefix:
        Gauge name prefix (default ``"serve.slo"``).
    """

    def __init__(
        self,
        *,
        window_s: float = 60.0,
        target_p99_s: float = 0.25,
        error_budget: float = 0.01,
        clock: Callable[[], float] = time.monotonic,
        registry: "_metrics.MetricsRegistry | None" = None,
        prefix: str = "serve.slo",
    ):
        for name, value in (
            ("window_s", window_s), ("target_p99_s", target_p99_s)
        ):
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be finite and positive, got {value!r}"
                )
        if not 0.0 < error_budget <= 1.0:
            raise ValueError("error_budget must be in (0, 1]")
        self.window_s = float(window_s)
        self.target_p99_s = float(target_p99_s)
        self.error_budget = float(error_budget)
        self._clock = clock
        self._registry = registry
        self.prefix = prefix
        self._lock = threading.Lock()
        # (monotonic time, latency seconds or None, category)
        self._events: deque[tuple[float, float | None, str]] = deque()

    # ------------------------------------------------------------------
    def _prune(self, now: float) -> None:
        horizon = now - self.window_s
        events = self._events
        while events and events[0][0] < horizon:
            events.popleft()

    def record(
        self, latency_s: float | None, status: str = "ok"
    ) -> None:
        """Add one finished request to the window.

        *latency_s* only feeds the quantiles for successful requests;
        shed/errored requests count toward the rates regardless.
        """
        now = self._clock()
        category = _categorize(status)
        with self._lock:
            self._events.append(
                (now, float(latency_s) if latency_s is not None else None,
                 category)
            )
            self._prune(now)

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The window's derived SLO signals as a plain dict."""
        now = self._clock()
        with self._lock:
            self._prune(now)
            events = list(self._events)
        n = len(events)
        latencies = sorted(
            lat for _, lat, cat in events
            if cat == _OK and lat is not None
        )
        n_ok = sum(1 for _, _, cat in events if cat == _OK)
        n_shed = sum(1 for _, _, cat in events if cat == _SHED)
        n_error = n - n_ok - n_shed
        shed_rate = n_shed / n if n else 0.0
        error_rate = n_error / n if n else 0.0
        bad_rate = shed_rate + error_rate
        budget_burn = bad_rate / self.error_budget
        p99 = _rank_quantile(latencies, 0.99)
        return {
            "window_s": self.window_s,
            "requests": n,
            "ok": n_ok,
            "shed": n_shed,
            "errors": n_error,
            "p50_latency_s": _rank_quantile(latencies, 0.50),
            "p99_latency_s": p99,
            "target_p99_s": self.target_p99_s,
            "p99_within_target": bool(p99 <= self.target_p99_s),
            "shed_rate": shed_rate,
            "error_rate": error_rate,
            "error_budget": self.error_budget,
            "budget_burn": budget_burn,
            "budget_remaining": 1.0 - budget_burn,
        }

    def publish(self) -> dict:
        """Write the window's signals as ``<prefix>.*`` gauges and
        return them (booleans publish as 0/1)."""
        health = self.health()
        for key in (
            "requests",
            "p50_latency_s",
            "p99_latency_s",
            "p99_within_target",
            "shed_rate",
            "error_rate",
            "budget_burn",
            "budget_remaining",
        ):
            name = f"{self.prefix}.{key}"
            value = float(health[key])
            if self._registry is None:
                _metrics.set_gauge(name, value)
            else:
                self._registry.set_gauge(name, value)
        return health
