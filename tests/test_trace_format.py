"""The Chrome trace format of traced runs.

Two traces: an open-loop serve burst with one pooled simulation
request, and a traced ``python -m repro fig7``. In both, complete
events nest on each (pid, tid) — the Chrome format reads them as a
stack per thread — and every async begin has an end with the same id.
In the serve trace, a request's events, its batch's ``seqs`` and its
worker task's label all carry the request's ticket seq.
"""

import json
import os
from collections import Counter

import pytest

from repro.__main__ import main
from repro.obs import trace as obs_trace
from repro.perf.pool import ShardedPool
from repro.serve.bench import run_arrivals
from repro.serve.requests import SimulateRequest
from repro.serve.workload import Arrival, synthetic_arrivals
from repro.workloads.catalog import APPLICATIONS
from repro.workloads.traces import TraceGenerator

# Microseconds; far below the gap between two clock readings, far above
# the rounding of ``(t - t0) * 1e6``.
_EPS_US = 1e-3


def _assert_well_formed(events: list[dict]) -> None:
    tracks: dict[tuple, list] = {}
    for e in events:
        if e["ph"] == "X":
            tracks.setdefault((e["pid"], e["tid"]), []).append(
                (e["ts"], e["ts"] + e["dur"], e["name"])
            )
    for track, spans in tracks.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack: list[tuple] = []
        for start, end, name in spans:
            while stack and stack[-1][1] <= start + _EPS_US:
                stack.pop()
            if stack:
                assert end <= stack[-1][1] + _EPS_US, (
                    f"{name} overlaps {stack[-1][2]} on {track}"
                )
            stack.append((start, end, name))
    pairs = [
        Counter((e["cat"], e["id"], e["name"]) for e in events
                if e["ph"] == phase)
        for phase in ("b", "e")
    ]
    assert pairs[0] == pairs[1]


@pytest.fixture(scope="module")
def serve_trace():
    """The events of one traced open-loop burst plus one pooled
    simulation request."""
    trace = TraceGenerator(APPLICATIONS["CoMD"], seed=5).generate(5_000)
    simulate = SimulateRequest(trace)
    arrivals = synthetic_arrivals(3, 48, rate_hz=2000.0, deadline_s=None)
    arrivals.append(Arrival(0.0, simulate))
    with ShardedPool(2) as pool, obs_trace.trace() as tracer:
        report = run_arrivals(arrivals, pool=pool, cache={})
    assert report.ok == len(arrivals)
    assert report.solo == 1
    return tracer.events


def test_serve_burst_trace_is_well_formed(serve_trace):
    _assert_well_formed(serve_trace)


def test_serve_request_path_shares_its_seq(serve_trace):
    begins = [e for e in serve_trace if e["ph"] == "b"]
    requests = {
        e["id"]: e["name"] for e in begins if e["name"] != "serve.queue_wait"
    }
    assert len(requests) == 49
    waits = {e["id"]: e["args"]["seq"] for e in begins
             if e["name"] == "serve.queue_wait"}
    assert all(seq == key for key, seq in waits.items())

    batched = Counter()
    for e in serve_trace:
        if e["name"] == "serve.batch":
            batched.update(e["args"]["seqs"])
            assert len(e["args"]["seqs"]) == e["args"]["requests"]
    # Every batched request ran in one batch after one queue wait; the
    # rest were answered inline at submit.
    assert set(batched.values()) == {1}
    assert set(batched) == set(waits) <= set(requests)

    (sim_seq,) = [
        seq for seq, name in requests.items()
        if name == "serve.SimulateRequest"
    ]
    assert sim_seq in batched
    (task,) = [e for e in serve_trace if e["name"].startswith("serve-solo-")]
    assert task["name"] == f"serve-solo-{sim_seq}"
    assert task["pid"] != os.getpid()


def test_cli_experiment_trace_is_well_formed(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert main(["fig7", "--trace-out", str(path)]) == 0
    events = json.loads(path.read_text())["traceEvents"]
    assert "experiment.fig7" in {e["name"] for e in events}
    _assert_well_formed(events)
