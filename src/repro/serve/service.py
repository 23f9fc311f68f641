"""Asyncio evaluation service: the serving front-end.

:class:`EvalService` accepts single-point evaluate, small-sweep,
experiment and trace-simulation requests and answers them through three
paths, cheapest first:

1. **Inline cache hit** — the service's answer memo already holds
   the answer to an equal point or sweep: answered at submit, on the
   event loop, with nothing evaluated. The memo is a plain ``dict``
   from an exact value key to the finished :class:`PointResult` or
   :class:`~repro.core.dse.DseResult`, filled by the batch path below
   and bounded at :data:`MEMO_MAX_ENTRIES` (the oldest entry goes
   first).
   Two requests share a key only when the model reads bit-identical
   inputs for them (see :meth:`EvalService._memo_key`). Ordering still
   holds: the hit routes through the batcher core's per-stream release
   buffer.
2. **Coalesced grid** — misses queue in the deterministic
   :class:`~repro.serve.batcher.BatcherCore`; the dispatcher drains up
   to the adaptive batch limit (a gathered burst, or whatever queued
   while the previous batch ran), merges compatible requests (points
   into a union grid under a waste cap, same-space sweeps into one
   profile batch) and evaluates each merged grid once, in-process,
   with ``NodeModel.evaluate_grid``. A grid of a few thousand cells
   costs about a millisecond, less than one pool round-trip.
3. **Degraded** — a point or sweep that cannot coalesce (unique space,
   or a union that would waste more tensor cells than the cap allows)
   is evaluated as its own grid call inside the batch.

Experiments and trace simulations run **solo** and are always
computed: one :class:`~repro.perf.pool.ShardedPool` task each when the
service has a pool (the pool's next idle worker takes it), else
in-process.

Every path produces **bit-identical** answers to a direct serial
``evaluate_grid``/``explore`` call on the same request, because every
path evaluates through the same fused tensor kernel and grid
composition is bit-exact along every axis (each cell runs the same
elementwise sequence whatever grid it sits in — gated by
``check_serve`` and ``tests/test_serve.py``).

Backpressure and deadlines are the core's job (bounded queue,
admission-time shed, dispatch-time expiry); this module feeds it the
real clock and executes its planned batches: a batch of only points
and sweeps on the event loop itself, any other on a single worker
thread (``pool.run`` blocks and is non-reentrant, and an in-process
experiment takes tens to hundreds of milliseconds).

Observability: ``serve.*`` counters and timing histograms in the
process registry (``serve.request_latency_seconds``, and a
``serve.<status>`` counter per request that is not ``ok``), plus
``cache.eval.hits`` (inline answers) and ``cache.eval.misses`` (points
and sweeps sent to a batch). When a tracer is active a request's path
is linked by its ticket's seq: the request (admission to response) and
its queue wait (admission to dispatch) are recorded when the request
ends, as Chrome async begin/end pairs whose ``id`` is the seq; the
``serve.batch`` span that served it lists it in ``seqs``; and its pool
task, if it has one, is labelled ``serve-solo-<seq>``.
"""

from __future__ import annotations

import asyncio
import operator
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.config import DesignSpace
from repro.core.dse import DseResult, select_optima
from repro.core.node import GridEvaluation, NodeModel
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.perf.pool import PoolTask, ShardedPool, _picklable_exception
from repro.serve.adaptive import AdaptiveBatchPolicy
from repro.serve.batcher import BatcherCore, Outcome, PlannedBatch, Ticket
from repro.serve.requests import (
    FAILED,
    OK,
    SHUTDOWN,
    ExperimentRequest,
    PointRequest,
    PointResult,
    ServeResponse,
    SimulateRequest,
    SweepRequest,
)
from repro.sim.apu_sim import ApuSimulator
from repro.workloads.kernels import KernelProfile, ProfileBatch

__all__ = ["EvalService", "serial_answer"]

MEMO_MAX_ENTRIES = 4096
"""Most answers the memo holds; past it, the oldest entry is evicted."""

UNION_WASTE_FACTOR = 8.0
"""Cap on union-grid waste when coalescing points: a union may evaluate
at most this many tensor cells per requested cell."""


# ----------------------------------------------------------------------
# Worker-side task functions (module-level: picklable for the pool).
# Every serve task returns ("ok", payload) / ("err", exception) instead
# of raising, so one bad request fails alone rather than aborting the
# whole pool.run batch.
# ----------------------------------------------------------------------
def _serve_run_experiment(name):
    """One registered paper artifact (lazy import: the registry pulls
    in every experiment module)."""
    try:
        from repro.experiments.registry import EXPERIMENTS

        return ("ok", EXPERIMENTS[name]())
    except BaseException as exc:
        return ("err", _picklable_exception(exc))


def _serve_simulate(trace, config):
    """One trace simulation, as :func:`serial_answer` runs it."""
    try:
        return ("ok", ApuSimulator(config).run(trace))
    except BaseException as exc:
        return ("err", _picklable_exception(exc))


# ----------------------------------------------------------------------
# Memo keys: exact values, so equal requests share one answer
# ----------------------------------------------------------------------
_profile_values = operator.attrgetter(*ProfileBatch.field_names())
_pack_profile_values = struct.Struct(
    f"{len(ProfileBatch.field_names())}d"
).pack


def _profile_key(profile: KernelProfile) -> tuple[str, bytes]:
    """What the model reads of *profile*: its name and the raw bytes of
    every field a :class:`ProfileBatch` stacks. Bytes, not floats, so
    ``-0.0`` and ``0.0`` never share a key."""
    return profile.name, _pack_profile_values(*_profile_values(profile))


def _model_key(model: NodeModel) -> str:
    """What the model reads of itself: the repr of its three frozen
    parameter records, a faithful value encoding."""
    return repr((model.machine, model.power_params, model.ext_config))


# ----------------------------------------------------------------------
# Batch planning: tickets -> execution units
# ----------------------------------------------------------------------
@dataclass
class _GridUnit:
    """One merged ``evaluate_grid`` call and how to carve it back up."""

    tickets: list[Ticket]
    batch: ProfileBatch
    space: DesignSpace
    rows_of: Mapping[int, tuple[int, ...]]  # ticket.seq -> batch rows
    col_of: Mapping[int, int]  # ticket.seq -> flat grid column (points)
    coalesced: bool


def _point_units(tickets: Sequence[Ticket]) -> list[_GridUnit]:
    """Greedy union grouping of point requests under a waste cap.

    Each group's union grid evaluates ``P x (C*F*B)`` cells for
    ``len(group)`` requested cells; a ticket joins the first group (in
    creation order) whose union stays within :data:`UNION_WASTE_FACTOR`
    cells per request, else opens a new one. Deterministic: tickets
    arrive in seq order and groups are probed in creation order.
    """
    groups: list[dict] = []
    fp_of: dict[int, tuple] = {}  # ticket.seq -> profile key
    for ticket in tickets:
        req: PointRequest = ticket.request
        fp = fp_of[ticket.seq] = _profile_key(req.profile)
        placed = False
        for g in groups:
            cus = g["cus"] | {int(req.n_cus)}
            freqs = g["freqs"] | {float(req.gpu_freq)}
            bws = g["bws"] | {float(req.bandwidth)}
            profs = set(g["profiles"]) | {fp}
            cells = len(profs) * len(cus) * len(freqs) * len(bws)
            name_clash = any(
                p.name == req.profile.name and pfp != fp
                for pfp, p in g["profiles"].items()
            )
            cap = UNION_WASTE_FACTOR * (len(g["tickets"]) + 1)
            if name_clash or cells > cap:
                continue
            g["cus"], g["freqs"], g["bws"] = cus, freqs, bws
            g["profiles"].setdefault(fp, req.profile)
            g["tickets"].append(ticket)
            placed = True
            break
        if not placed:
            groups.append(
                {
                    "cus": {int(req.n_cus)},
                    "freqs": {float(req.gpu_freq)},
                    "bws": {float(req.bandwidth)},
                    "profiles": {fp: req.profile},
                    "tickets": [ticket],
                }
            )

    units = []
    for g in groups:
        cus = tuple(sorted(g["cus"]))
        freqs = tuple(sorted(g["freqs"]))
        bws = tuple(sorted(g["bws"]))
        space = DesignSpace(
            cu_counts=cus, frequencies=freqs, bandwidths=bws
        )
        row_index = {fp: i for i, fp in enumerate(g["profiles"])}
        batch = ProfileBatch.from_profiles(list(g["profiles"].values()))
        rows_of, col_of = {}, {}
        n_f, n_b = len(freqs), len(bws)
        for ticket in g["tickets"]:
            req = ticket.request
            rows_of[ticket.seq] = (row_index[fp_of[ticket.seq]],)
            col_of[ticket.seq] = (
                cus.index(int(req.n_cus)) * n_f * n_b
                + freqs.index(float(req.gpu_freq)) * n_b
                + bws.index(float(req.bandwidth))
            )
        units.append(
            _GridUnit(
                tickets=g["tickets"],
                batch=batch,
                space=space,
                rows_of=rows_of,
                col_of=col_of,
                coalesced=len(g["tickets"]) > 1,
            )
        )
    return units


def _sweep_units(tickets: Sequence[Ticket]) -> list[_GridUnit]:
    """Merge same-space sweeps into one profile batch (dedup by
    profile key; a profile-name clash between different profiles opens
    a new unit)."""
    groups: list[dict] = []
    fps_of: dict[int, list[tuple]] = {}  # ticket.seq -> profile keys
    for ticket in tickets:
        req: SweepRequest = ticket.request
        fps = fps_of[ticket.seq] = [_profile_key(p) for p in req.profiles]
        placed = False
        for g in groups:
            clash = any(
                p.name == prof.name and pfp != fp
                for prof, fp in zip(req.profiles, fps)
                for pfp, p in g["profiles"].items()
            )
            if clash:
                continue
            for prof, fp in zip(req.profiles, fps):
                g["profiles"].setdefault(fp, prof)
            g["tickets"].append(ticket)
            placed = True
            break
        if not placed:
            groups.append(
                {
                    "space": req.space,
                    "profiles": dict(zip(fps, req.profiles)),
                    "tickets": [ticket],
                }
            )

    units = []
    for g in groups:
        row_index = {fp: i for i, fp in enumerate(g["profiles"])}
        batch = ProfileBatch.from_profiles(list(g["profiles"].values()))
        rows_of = {}
        for ticket in g["tickets"]:
            rows_of[ticket.seq] = tuple(
                row_index[fp] for fp in fps_of[ticket.seq]
            )
        units.append(
            _GridUnit(
                tickets=g["tickets"],
                batch=batch,
                space=g["space"],
                rows_of=rows_of,
                col_of={},
                coalesced=len(g["tickets"]) > 1,
            )
        )
    return units


def serial_answer(request, model: NodeModel | None = None):
    """The oracle: answer *request* with a direct serial evaluation.

    Point requests evaluate their singleton grid through
    ``NodeModel.evaluate_grid`` (the tensor engine, matching
    ``explore``'s default); sweeps run ``select_optima`` on the grid;
    experiments call their registered function; simulations run the
    simulator directly. The equivalence tests compare every served
    response against this, bit for bit.
    """
    model = model or NodeModel()
    if isinstance(request, PointRequest):
        space = request.to_space()
        grid = model.evaluate_grid([request.profile], space)
        return PointResult(
            performance=float(grid.performance[0, 0]),
            node_power=float(grid.power[0, 0]),
            feasible=bool(grid.feasible[0, 0]),
        )
    if isinstance(request, SweepRequest):
        grid = model.evaluate_grid(list(request.profiles), request.space)
        performance = {n: grid.performance[i] for i, n in enumerate(grid.names)}
        power = {n: grid.power[i] for i, n in enumerate(grid.names)}
        feasible = {n: grid.feasible[i] for i, n in enumerate(grid.names)}
        return select_optima(request.space, performance, power, feasible)
    if isinstance(request, ExperimentRequest):
        from repro.experiments.registry import EXPERIMENTS

        return EXPERIMENTS[request.name]()
    if isinstance(request, SimulateRequest):
        return ApuSimulator(request.config).run(request.trace)
    raise TypeError(f"unknown request type {type(request).__name__}")


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class EvalService:
    """Async front-end over the tensor engine, pool and caches.

    Parameters
    ----------
    model:
        The :class:`NodeModel` every evaluation uses (one service, one
        model, so one cache key space).
    pool:
        Optional :class:`~repro.perf.pool.ShardedPool` that runs the
        experiment and simulation requests, one task each; ``None``
        runs them on the service's worker thread. Grid units always
        evaluate in-process.
    cache:
        The answer memo: a ``dict`` from exact value key to finished
        answer, probed at submit for points and sweeps and filled by
        every batch that computes one, holding at most
        :data:`MEMO_MAX_ENTRIES` (oldest out first). Defaults to a fresh
        ``dict``; services that should share answers pass the same one.
        Treat memoized answers as read-only: repeats receive the same
        object.
    policy:
        Batch sizing policy with an ``observe(batch_seconds,
        requests)`` the dispatcher calls after every batch; default is
        an :class:`~repro.serve.adaptive.AdaptiveBatchPolicy`
        (:class:`~repro.serve.batcher.FixedPolicy` also fits).
    max_queue:
        Backpressure bound on queued requests.
    clock:
        Injected monotonic clock (tests use a fake one).
    """

    def __init__(
        self,
        *,
        model: NodeModel | None = None,
        pool: ShardedPool | None = None,
        cache: dict | None = None,
        policy: AdaptiveBatchPolicy | None = None,
        max_queue: int = 1024,
        clock=time.monotonic,
    ):
        self.model = model or NodeModel()
        self.pool = pool
        self.cache = cache if cache is not None else {}
        self.policy = policy if policy is not None else AdaptiveBatchPolicy()
        self.clock = clock
        # seq -> [tracer, admitted, dispatched] in tracer-clock
        # readings; dispatched stays None until the request's batch
        # starts. Recorded and dropped when the outcome is drained.
        self._req_traces: dict[int, list] = {}
        self.core = BatcherCore(self.policy, max_queue=max_queue)
        # Part of every memo key, so a memo shared between services
        # never mixes two models' answers.
        self._model_key = _model_key(self.model)
        self._futures: dict[int, asyncio.Future] = {}
        self._wake: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._closing = False
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "EvalService":
        """Start the dispatcher; idempotent."""
        if self._started:
            return self
        self._started = True
        self._closing = False
        self._wake = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop(), name="repro-serve-dispatch"
        )
        return self

    async def aclose(self) -> None:
        """Drain and stop: in-flight batches finish, queued requests
        resolve with :data:`SHUTDOWN`, and new submissions are refused."""
        if not self._started:
            return
        self._closing = True
        self._wake.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        self.core.flush(self.clock())
        self._drain_outcomes()
        # Anything still unresolved (shouldn't happen) fails loudly.
        for seq, future in list(self._futures.items()):
            if not future.done():
                future.set_result(
                    ServeResponse(status=SHUTDOWN, completed_at=self.clock())
                )
            del self._futures[seq]
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._started = False

    async def __aenter__(self) -> "EvalService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    async def evaluate(
        self, profile: KernelProfile, n_cus: int, gpu_freq: float,
        bandwidth: float, **kwargs,
    ) -> ServeResponse:
        """Submit one :class:`PointRequest`."""
        return await self.submit(
            PointRequest(profile, n_cus, gpu_freq, bandwidth, **kwargs)
        )

    async def sweep(
        self, profiles: Sequence[KernelProfile], space: DesignSpace, **kwargs
    ) -> ServeResponse:
        """Submit one :class:`SweepRequest`."""
        return await self.submit(
            SweepRequest(tuple(profiles), space, **kwargs)
        )

    async def experiment(self, name: str, **kwargs) -> ServeResponse:
        """Submit one :class:`ExperimentRequest`."""
        return await self.submit(ExperimentRequest(name, **kwargs))

    async def simulate(self, trace, config=None, **kwargs) -> ServeResponse:
        """Submit one :class:`SimulateRequest`."""
        return await self.submit(SimulateRequest(trace, config, **kwargs))

    async def submit(self, request) -> ServeResponse:
        """Admit one request and await its terminal response."""
        if not self._started or self._closing:
            now = self.clock()
            return ServeResponse(
                status=SHUTDOWN, admitted_at=now, completed_at=now
            )
        obs_metrics.inc("serve.requests")
        tracer = obs_trace.active_tracer()
        admitted = tracer.now() if tracer is not None else None
        now = self.clock()
        inline = None
        if isinstance(request, (PointRequest, SweepRequest)):
            try:
                inline = self.cache.get(self._memo_key(request))
            except Exception:
                # A malformed request takes the batch path, which
                # reports it as a proper FAILED response.
                pass
            obs_metrics.inc(
                "cache.eval.misses" if inline is None else "cache.eval.hits"
            )
        if inline is not None:
            ticket = self.core.admit_completed(
                request, inline, now, stream=request.stream
            )
        else:
            ticket = self.core.admit(
                request,
                now,
                stream=request.stream,
                deadline_s=request.deadline_s,
                group_key=self._group_key(request),
            )
        if tracer is not None:
            self._req_traces[ticket.seq] = [tracer, admitted, None]
        future = asyncio.get_running_loop().create_future()
        self._futures[ticket.seq] = future
        self._drain_outcomes()
        self._wake.set()
        return await future

    # ------------------------------------------------------------------
    # Inline cache path
    # ------------------------------------------------------------------
    def _memo_key(self, request) -> tuple:
        """The answer memo's key for a point or sweep: the model's
        parameters, each profile's :func:`_profile_key`, and what was
        asked. Equal keys mean the model reads bit-identical inputs:
        every axis value and budget is validated finite and positive,
        so value equality is bit equality after the model's ``float``
        conversion."""
        if isinstance(request, PointRequest):
            return (
                self._model_key, _profile_key(request.profile),
                request.n_cus, request.gpu_freq, request.bandwidth,
                request.power_budget,
            )
        return (
            self._model_key,
            tuple(map(_profile_key, request.profiles)),
            request.space,
        )

    def _group_key(self, request) -> Any:
        if isinstance(request, PointRequest):
            return ("points",)
        if isinstance(request, SweepRequest):
            return ("sweep", request.space)
        return None  # experiments / simulations run solo

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if self._closing:
                # Finish nothing new: aclose() flushes what's queued.
                return
            if self.core.depth() == 0:
                await self._wake.wait()
                self._wake.clear()
                continue
            planned = self.core.plan(self.clock())
            self._drain_outcomes()
            if planned is None:
                continue
            if self._req_traces:
                # The queue wait ends here; it is recorded with the
                # request.
                for ticket in planned.tickets:
                    entry = self._req_traces.get(ticket.seq)
                    if entry is not None:
                        entry[2] = entry[0].now()
            # A grid unit takes about a millisecond and the thread
            # handoff as long again, with the loop idle; experiments and
            # simulations block far longer, so they keep the thread.
            on_loop = all(
                key[0] in ("points", "sweep") for key in planned.groups
            )
            started = self.clock()
            try:
                if on_loop:
                    results = self._execute_batch(planned)
                else:
                    results = await loop.run_in_executor(
                        self._executor, self._execute_batch, planned
                    )
            except BaseException as exc:
                status = (
                    SHUTDOWN
                    if isinstance(exc, RuntimeError)
                    and "shut down" in str(exc)
                    else FAILED
                )
                results = {
                    t.seq: (status, _picklable_exception(exc))
                    for t in planned.tickets
                }
            now = self.clock()
            n = len(planned.tickets)
            obs_metrics.observe("serve.batch_seconds", now - started)
            obs_metrics.inc("serve.batch_requests", n)
            obs_metrics.inc("serve.batches")
            self.policy.observe(now - started, n)
            self.core.complete(planned.batch_id, results, now)
            self._drain_outcomes()
            if on_loop:
                # Yield once: answered requests resume, and due arrivals
                # are admitted (or shed) between backlog batches.
                await asyncio.sleep(0)

    def _drain_outcomes(self) -> None:
        """Resolve awaiting futures from the core's released outcomes."""
        for outcome in self.core.poll_outcomes():
            ticket = outcome.ticket
            seq = ticket.seq
            entry = self._req_traces.pop(seq, None)
            if entry is not None:
                # The request has ended: record it, and its queue wait
                # if its batch started, as async pairs keyed by seq.
                tracer, admitted, dispatched = entry
                tracer.async_span(
                    f"serve.{type(ticket.request).__name__}", admitted,
                    tracer.now(), seq, cat="serve", stream=ticket.stream,
                )
                if dispatched is not None:
                    tracer.async_span(
                        "serve.queue_wait", admitted, dispatched, seq,
                        cat="serve", seq=seq,
                    )
            future = self._futures.pop(seq, None)
            response = _response_from(outcome)
            if response.status != OK:
                obs_metrics.inc(f"serve.{response.status}")
            obs_metrics.observe(
                "serve.request_latency_seconds", response.latency_s
            )
            if future is not None and not future.done():
                future.set_result(response)

    # ------------------------------------------------------------------
    # Batch execution (event loop or worker thread)
    # ------------------------------------------------------------------
    def _execute_batch(
        self, planned: PlannedBatch
    ) -> dict[int, tuple[str, Any]]:
        """Evaluate one planned batch; returns seq -> (status, payload).

        Runs on the event loop for a batch of only points and sweeps,
        else on the service's single worker thread: plans execution
        units, evaluates each grid unit once and carves per-request
        answers back out of the merged tensors, then runs the solo
        requests (on the pool when there is one).
        """
        with obs_trace.span(
            "serve.batch", cat="serve",
            requests=len(planned.tickets), groups=len(planned.groups),
            seqs=[t.seq for t in planned.tickets],
        ):
            return self._execute_batch_inner(planned)

    def _execute_batch_inner(
        self, planned: PlannedBatch
    ) -> dict[int, tuple[str, Any]]:
        results: dict[int, tuple[str, Any]] = {}
        grid_units: list[_GridUnit] = []
        solo_tickets: list[Ticket] = []

        for key, tickets in planned.groups.items():
            kind = key[0] if isinstance(key, tuple) and key else None
            try:
                if kind == "points":
                    grid_units.extend(_point_units(tickets))
                elif kind == "sweep":
                    grid_units.extend(_sweep_units(tickets))
                else:
                    solo_tickets.extend(tickets)
            except BaseException as exc:
                for t in tickets:
                    results[t.seq] = (FAILED, exc)

        for unit in grid_units:
            try:
                grid = self.model.evaluate_grid(unit.batch, unit.space)
            except BaseException as exc:
                for t in unit.tickets:
                    results[t.seq] = (FAILED, exc)
                continue
            self._finish_grid_unit(unit, grid, results)

        tasks: list[PoolTask] = []
        task_tickets: list[Ticket] = []
        for ticket in solo_tickets:
            req = ticket.request
            if isinstance(req, ExperimentRequest):
                fn, args = _serve_run_experiment, (req.name,)
            elif isinstance(req, SimulateRequest):
                fn, args = _serve_simulate, (req.trace, req.config)
            else:
                results[ticket.seq] = (
                    FAILED,
                    TypeError(
                        f"unknown request type {type(req).__name__}"
                    ),
                )
                continue
            if self.pool is not None:
                tasks.append(
                    PoolTask(
                        fn=fn, args=args, label=f"serve-solo-{ticket.seq}"
                    )
                )
                task_tickets.append(ticket)
            else:
                self._finish_solo(ticket, fn(*args), results)

        if tasks:
            for ticket, reply in zip(task_tickets, self.pool.run(tasks)):
                self._finish_solo(ticket, reply, results)
        return results

    def _finish_solo(self, ticket: Ticket, reply, results) -> None:
        status, payload = reply
        if status == "ok":
            results[ticket.seq] = (OK, (payload, "solo"))
        else:
            results[ticket.seq] = (FAILED, payload)

    def _finish_grid_unit(
        self, unit: _GridUnit, grid: GridEvaluation, results
    ) -> None:
        """Carve per-request answers out of one evaluated grid unit and
        memoize each, so an equal request later answers inline."""
        path = "coalesced" if unit.coalesced else "degraded"
        for ticket in unit.tickets:
            req = ticket.request
            rows = unit.rows_of[ticket.seq]
            try:
                if isinstance(req, PointRequest):
                    col = unit.col_of[ticket.seq]
                    power = float(grid.power[rows[0], col])
                    value = PointResult(
                        float(grid.performance[rows[0], col]),
                        power,
                        bool(power <= float(req.power_budget)),
                    )
                else:  # SweepRequest
                    idx = np.asarray(rows, dtype=int)
                    sub = GridEvaluation(
                        names=tuple(p.name for p in req.profiles),
                        space=req.space,
                        performance=grid.performance[idx],
                        power=grid.power[idx],
                        feasible=grid.feasible[idx],
                    )
                    value = _optima_from_grid(sub, req.space)
            except BaseException as exc:
                results[ticket.seq] = (FAILED, exc)
                continue
            self.cache[self._memo_key(req)] = value
            while len(self.cache) > MEMO_MAX_ENTRIES:
                # A dict iterates in insertion order: oldest key first.
                del self.cache[next(iter(self.cache))]
            results[ticket.seq] = (OK, (value, path))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Live serve counters plus the pool's task and restart
        counts."""
        out = dict(self.core.stats)
        out["queue_depth"] = self.core.depth()
        out["inflight"] = self.core.inflight()
        out["batch_limit"] = self.policy.batch_limit()
        out["est_request_seconds"] = self.policy.est_request_seconds()
        if self.pool is not None:
            pool_stats = self.pool.stats()
            out["pool_worker_restarts"] = pool_stats.worker_restarts
            out["pool_tasks"] = pool_stats.tasks
        return out


def _response_from(outcome: Outcome) -> ServeResponse:
    """Translate one core outcome into the public response type."""
    return ServeResponse(
        status=outcome.status,
        value=outcome.value,
        error=outcome.error,
        path=outcome.path,
        batch_id=outcome.batch_id,
        admitted_at=outcome.ticket.admitted_at,
        completed_at=outcome.completed_at,
    )


def _optima_from_grid(grid: GridEvaluation, space: DesignSpace) -> DseResult:
    """``select_optima`` over one evaluated grid — the sweep answer."""
    performance = {n: grid.performance[i] for i, n in enumerate(grid.names)}
    power = {n: grid.power[i] for i, n in enumerate(grid.names)}
    feasible = {n: grid.feasible[i] for i, n in enumerate(grid.names)}
    return select_optima(space, performance, power, feasible)
