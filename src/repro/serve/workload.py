"""Seeded synthetic request traffic for the serving layer.

The check_serve gate, the serve benchmarks and the deterministic test
harness all need the same thing: an *open-loop* arrival process —
requests arrive on a schedule that does not care how fast the service
answers (the ExaNeSt lesson: closed-loop clients flatter a slow
server) — over a realistic mix of mostly-small, partly-repeating
requests. Everything here is derived from one ``numpy`` Generator
seeded by the caller, so a (seed, parameters) pair names the exact
trace forever.

The mix: point evaluations dominate (drawn Zipf-style from a template
pool, so some design points repeat and exercise the inline-cache
path), a minority of small sweeps over a handful of shared spaces, and
optional trace simulations. Arrival times are exponential
inter-arrivals at ``rate_hz`` (Poisson process), or all-at-zero for
closed-loop burst tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.config import DesignSpace, _finite_positive
from repro.serve.requests import PointRequest, SimulateRequest, SweepRequest
from repro.workloads.catalog import APPLICATIONS

__all__ = ["Arrival", "synthetic_arrivals"]

_CU_AXIS = (192, 256, 320, 384)
_FREQ_AXIS = (0.8e9, 1.0e9, 1.2e9, 1.4e9)
_BW_AXIS = (1.0e12, 2.0e12, 3.0e12, 4.0e12)

_SWEEP_SPACES = (
    DesignSpace(
        cu_counts=(192, 256, 320, 384),
        frequencies=(0.8e9, 1.1e9, 1.4e9),
        bandwidths=(1.0e12, 3.0e12, 5.0e12),
    ),
    DesignSpace(
        cu_counts=(256, 320, 384),
        frequencies=(0.9e9, 1.2e9),
        bandwidths=(2.0e12, 4.0e12, 6.0e12),
    ),
)


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: submit *request* at time *at* (seconds
    from trace start)."""

    at: float
    request: Any


def synthetic_arrivals(
    seed: int,
    n_requests: int,
    *,
    rate_hz: float | None = None,
    point_fraction: float = 0.8,
    simulate_fraction: float = 0.0,
    n_templates: int = 32,
    n_streams: int = 4,
    deadline_s: float | None = 0.25,
    profiles: Sequence | None = None,
) -> list[Arrival]:
    """Generate a deterministic open-loop arrival trace.

    Parameters
    ----------
    seed / n_requests:
        The trace's identity and length.
    rate_hz:
        Mean arrival rate of the Poisson process; ``None`` puts every
        arrival at t=0 (closed-loop burst).
    point_fraction:
        Share of point requests; the remainder (minus
        *simulate_fraction*) is small sweeps.
    simulate_fraction:
        Share of trace-simulation requests (0 by default — they are
        orders of magnitude heavier than a point evaluate).
    n_templates:
        Size of the point-request template pool; templates are drawn
        Zipf-style (p ∝ 1/rank) so popular points repeat.
    n_streams:
        Requests round among ``stream-0..stream-{n-1}`` uniformly.
    deadline_s:
        Relative deadline stamped on every request (``None`` disables
        deadlines).
    profiles:
        Kernel profiles to draw from; defaults to the Table I catalog.
    """
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    # Only None means closed loop: a NaN or zero rate is an error.
    if rate_hz is not None and not _finite_positive(rate_hz):
        raise ValueError(
            f"rate_hz must be None or finite and positive, got {rate_hz!r}"
        )
    if not 0.0 <= point_fraction <= 1.0:
        raise ValueError("point_fraction must be in [0, 1]")
    if not 0.0 <= simulate_fraction <= 1.0 - point_fraction:
        raise ValueError(
            "simulate_fraction must fit alongside point_fraction"
        )
    rng = np.random.default_rng(seed)
    profiles = (
        list(profiles) if profiles is not None
        else list(APPLICATIONS.values())
    )

    # Point-request template pool, Zipf-weighted.
    templates = []
    for _ in range(max(1, n_templates)):
        templates.append(
            (
                profiles[int(rng.integers(len(profiles)))],
                int(_CU_AXIS[int(rng.integers(len(_CU_AXIS)))]),
                float(_FREQ_AXIS[int(rng.integers(len(_FREQ_AXIS)))]),
                float(_BW_AXIS[int(rng.integers(len(_BW_AXIS)))]),
            )
        )
    ranks = np.arange(1, len(templates) + 1, dtype=float)
    zipf = (1.0 / ranks) / (1.0 / ranks).sum()

    if rate_hz is not None:
        gaps = rng.exponential(1.0 / rate_hz, size=n_requests)
        at = np.cumsum(gaps)
    else:
        at = np.zeros(n_requests)

    sim_trace = None
    arrivals: list[Arrival] = []
    for i in range(n_requests):
        stream = f"stream-{i % max(1, n_streams)}"
        draw = float(rng.random())
        if draw < point_fraction:
            profile, cus, freq, bw = templates[
                int(rng.choice(len(templates), p=zipf))
            ]
            request: Any = PointRequest(
                profile, cus, freq, bw,
                stream=stream, deadline_s=deadline_s,
            )
        elif draw < point_fraction + simulate_fraction:
            if sim_trace is None:
                from repro.workloads.traces import TraceGenerator

                sim_trace = TraceGenerator(
                    profiles[0], seed=seed
                ).generate(2000)
            request = SimulateRequest(
                sim_trace, stream=stream, deadline_s=deadline_s
            )
        else:
            space = _SWEEP_SPACES[int(rng.integers(len(_SWEEP_SPACES)))]
            count = int(rng.integers(1, min(4, len(profiles)) + 1))
            picks = rng.choice(len(profiles), size=count, replace=False)
            request = SweepRequest(
                tuple(profiles[int(p)] for p in sorted(picks)),
                space,
                stream=stream,
                deadline_s=deadline_s,
            )
        arrivals.append(Arrival(at=float(at[i]), request=request))
    return arrivals
