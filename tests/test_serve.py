"""The serving layer (``repro.serve``).

Covers the deterministic batcher core (admission, backpressure,
deadline shed, expiry, grouping, ordered release), the adaptive sizing
policy, the harness's bit-for-bit reproducibility, the answer memo and
its exact value keys, and — through a real asyncio service over a real worker
pool — oracle equivalence of every response path against direct serial
evaluation, fault injection (worker kill mid-serve), and clean
shutdown-while-in-flight behaviour.

No pytest-asyncio in the toolchain: async tests run via
``asyncio.run`` inside plain test functions.
"""

import asyncio
import dataclasses
import itertools
import threading
import time

import numpy as np
import pytest

from repro.core.config import DesignSpace
from repro.core.dse import DseResult
from repro.core.node import NodeModel
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.perf.pool import ShardedPool
from repro.power.components import PowerParams
from repro.serve import (
    AdaptiveBatchPolicy,
    BatcherCore,
    EvalService,
    FixedPolicy,
    PointRequest,
    PointResult,
    ServeResponse,
    SimulateRequest,
    SweepRequest,
    serial_answer,
)
from repro.serve.requests import (
    EXPIRED,
    FAILED,
    OK,
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    SHUTDOWN,
    STATUSES,
    ExperimentRequest,
)
from repro.serve.workload import Arrival, synthetic_arrivals
from repro.workloads.kernels import ProfileBatch
from serve_harness import BatchCostModel, FakeClock, ServeHarness, run_trace

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _new_pool(n_shards=2):
    try:
        return ShardedPool(n_shards)
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"cannot spawn worker processes: {exc}")


@pytest.fixture(scope="module")
def pool():
    """One long-lived 2-shard pool shared by the pooled serve tests."""
    p = _new_pool(2)
    yield p
    p.shutdown()


def _fresh_service(**kwargs):
    """A service over a private answer memo (no cross-test pollution)."""
    kwargs.setdefault("cache", {})
    return EvalService(**kwargs)


def _assert_same_answer(response: ServeResponse, request, model=None):
    """The served value must be bit-identical to the serial oracle."""
    assert response.status == OK, (response.status, response.error)
    oracle = serial_answer(request, model)
    value = response.value
    if isinstance(oracle, PointResult):
        assert value == oracle  # exact float equality: bit-identical
    elif isinstance(oracle, DseResult):
        assert value.best_mean_index == oracle.best_mean_index
        assert value.per_app_best_index == oracle.per_app_best_index
        for name in oracle.performance:
            assert np.array_equal(
                value.performance[name], oracle.performance[name]
            )
            assert np.array_equal(
                value.node_power[name], oracle.node_power[name]
            )
            assert np.array_equal(
                value.feasible[name], oracle.feasible[name]
            )
    else:
        assert value == oracle


def _statuses_account_for_everything(stats: dict) -> None:
    terminal = (
        stats["completed_ok"]
        + stats["failed"]
        + stats["shed_queue_full"]
        + stats["shed_deadline"]
        + stats["expired"]
        + stats["shutdown"]
    )
    assert terminal == stats["admitted"]


# ----------------------------------------------------------------------
# Batcher core (sans-io)
# ----------------------------------------------------------------------
class TestBatcherCore:
    def test_fifo_batch_and_ordered_release(self):
        core = BatcherCore(FixedPolicy(batch=3))
        tickets = [core.admit(f"r{i}", 0.0, stream="s") for i in range(5)]
        assert [t.stream_seq for t in tickets] == [0, 1, 2, 3, 4]
        planned = core.plan(1.0)
        assert [t.seq for t in planned.tickets] == [0, 1, 2]
        assert core.depth() == 2 and core.inflight() == 3
        # Complete out of order within the batch: release holds order.
        core.complete(
            planned.batch_id,
            {2: (OK, "c"), 0: (OK, "a"), 1: (OK, "b")},
            2.0,
        )
        released = core.poll_outcomes()
        assert [o.ticket.seq for o in released] == [0, 1, 2]
        assert [o.value for o in released] == ["a", "b", "c"]

    def test_queue_full_sheds_explicitly(self):
        core = BatcherCore(FixedPolicy(), max_queue=2)
        for i in range(2):
            core.admit(i, 0.0)
        shed = core.admit(2, 0.0)
        assert shed.stream_seq == -1
        outcomes = core.poll_outcomes()
        assert [o.status for o in outcomes] == [SHED_QUEUE_FULL]
        assert core.stats["shed_queue_full"] == 1

    def test_deadline_shed_at_admission(self):
        core = BatcherCore(
            FixedPolicy(est_request_s=1.0, dispatch_overhead_s=0.0)
        )
        ok = core.admit("fits", 0.0, deadline_s=10.0)
        assert ok.stream_seq >= 0
        shed = core.admit("cannot", 0.0, deadline_s=0.5)
        assert shed.stream_seq == -1
        (outcome,) = core.poll_outcomes()
        assert outcome.status == SHED_DEADLINE

    def test_expiry_at_plan_time(self):
        core = BatcherCore(FixedPolicy(est_request_s=1e-6))
        core.admit("r", 0.0, deadline_s=0.1)
        assert core.plan(1.0) is None  # deadline long past
        (outcome,) = core.poll_outcomes()
        assert outcome.status == EXPIRED

    def test_group_keys_and_solo(self):
        core = BatcherCore(FixedPolicy(batch=10))
        core.admit("a", 0.0, group_key="g")
        core.admit("b", 0.0, group_key="g")
        core.admit("c", 0.0, group_key=None)
        planned = core.plan(0.0)
        keys = set(planned.groups)
        assert "g" in keys
        assert ("solo", 2) in keys
        assert len(planned.groups["g"]) == 2

    def test_missing_result_fails_not_lost(self):
        core = BatcherCore(FixedPolicy(batch=2))
        core.admit("a", 0.0)
        core.admit("b", 0.0)
        planned = core.plan(0.0)
        core.complete(planned.batch_id, {0: (OK, "a")}, 1.0)
        outcomes = {o.ticket.seq: o for o in core.poll_outcomes()}
        assert outcomes[0].status == OK
        assert outcomes[1].status == FAILED
        assert "no result" in str(outcomes[1].error)

    def test_invalid_status_rejected(self):
        core = BatcherCore()
        core.admit("a", 0.0)
        planned = core.plan(0.0)
        with pytest.raises(ValueError):
            core.complete(planned.batch_id, {0: ("bogus", None)}, 1.0)

    def test_unknown_batch_rejected(self):
        with pytest.raises(KeyError):
            BatcherCore().complete(99, {}, 0.0)

    def test_inline_held_behind_pending_same_stream(self):
        core = BatcherCore(FixedPolicy(batch=1))
        core.admit("slow", 0.0, stream="s")
        planned = core.plan(0.0)
        inline = core.admit_completed("fast", "hit", 0.1, stream="s")
        assert inline.stream_seq == 1
        assert core.poll_outcomes() == []  # held behind seq 0
        core.complete(planned.batch_id, {0: (OK, "v")}, 0.2)
        released = core.poll_outcomes()
        assert [o.ticket.stream_seq for o in released] == [0, 1]
        assert released[1].path == "inline-cache"

    def test_streams_are_independent(self):
        core = BatcherCore(FixedPolicy(batch=1))
        core.admit("a", 0.0, stream="s1")
        planned = core.plan(0.0)
        inline = core.admit_completed("b", "hit", 0.1, stream="s2")
        (released,) = core.poll_outcomes()  # s2 not held behind s1
        assert released.ticket.seq == inline.seq
        core.complete(planned.batch_id, {0: (OK, "v")}, 0.2)
        assert len(core.poll_outcomes()) == 1

    def test_flush_resolves_queued_and_inflight(self):
        core = BatcherCore(FixedPolicy(batch=2))
        for i in range(5):
            core.admit(i, 0.0)
        core.plan(0.0)
        flushed = core.flush(1.0)
        assert flushed == 5
        outcomes = core.poll_outcomes()
        assert len(outcomes) == 5
        assert all(o.status == SHUTDOWN for o in outcomes)
        _statuses_account_for_everything(core.stats)

    def test_bad_max_queue(self):
        # A count: 2.5 is not silently truncated, inf does not overflow.
        for max_queue in (0, 2.5, float("inf"), float("nan"), True):
            with pytest.raises(ValueError):
                BatcherCore(max_queue=max_queue)


# ----------------------------------------------------------------------
# Adaptive policy and quantiles
# ----------------------------------------------------------------------
class TestAdaptivePolicy:
    def test_cold_start_uses_default(self):
        policy = AdaptiveBatchPolicy(
            default_request_seconds=5e-3, target_batch_seconds=0.02,
        )
        assert policy.est_request_seconds() == 5e-3
        assert policy.batch_limit() == 4  # 0.02 / 5e-3

    def test_refresh_tracks_measured_rate(self):
        policy = AdaptiveBatchPolicy(
            target_batch_seconds=0.1, max_batch=1000
        )
        policy.observe(0.2, 200)  # 1 ms / request
        assert policy.est_request_seconds() == pytest.approx(1e-3)
        assert policy.batch_limit() == 100

    def test_clamped_to_bounds(self):
        policy = AdaptiveBatchPolicy(
            min_batch=2, max_batch=8, target_batch_seconds=1.0
        )
        policy.observe(1e-6, 1)
        assert policy.batch_limit() == 8
        policy.observe(1e6, 0)
        assert policy.batch_limit() == 2

    def test_each_service_learns_from_its_own_batches(self, model):
        # The estimate belongs to the policy: it moves with metrics
        # off, and a second service starts from its default and learns
        # from its own batches alone (a frozen clock times each at 0 s).
        arrivals = synthetic_arrivals(5, 64, deadline_s=None)

        async def burst(svc):
            async with svc:
                await asyncio.gather(
                    *(svc.submit(a.request) for a in arrivals)
                )
            return svc.stats()["est_request_seconds"]

        default = AdaptiveBatchPolicy().default_request_seconds
        with obs_metrics.disabled():
            first = asyncio.run(burst(_fresh_service(model=model)))
            second = _fresh_service(model=model, clock=lambda: 0.0)
            assert second.stats()["est_request_seconds"] == default
            frozen = asyncio.run(burst(second))
        assert first != default
        assert frozen == 1e-9

    def test_validation(self):
        for bad in (
            {"min_batch": 0},
            {"min_batch": 4, "max_batch": 2},
            {"max_batch": 2.5},
            {"max_batch": float("inf")},
            {"target_batch_seconds": 0.0},
            {"target_batch_seconds": float("nan")},
            {"default_request_seconds": float("inf")},
            {"dispatch_overhead_s": float("nan")},
            {"dispatch_overhead_s": -1.0},
        ):
            with pytest.raises(ValueError):
                AdaptiveBatchPolicy(**bad)


class TestHistogramQuantile:
    def test_empty_is_zero(self):
        snap = obs_metrics.MetricsRegistry().snapshot()
        assert snap.histograms == {}
        registry = obs_metrics.MetricsRegistry()
        registry.observe("h", 1.0)
        hist = registry.snapshot().histograms["h"]
        empty = hist.diff(hist)
        assert empty.quantile(0.99) == 0.0

    def test_bucket_upper_bound(self):
        registry = obs_metrics.MetricsRegistry(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 1.5, 3.0):
            registry.observe("h", v)
        hist = registry.snapshot().histograms["h"]
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(0.75) == 2.0
        assert hist.quantile(1.0) == 4.0

    def test_overflow_is_inf(self):
        registry = obs_metrics.MetricsRegistry(buckets=(1.0,))
        registry.observe("h", 100.0)
        assert registry.snapshot().histograms["h"].quantile(0.5) == float(
            "inf"
        )

    def test_out_of_range_rejected(self):
        registry = obs_metrics.MetricsRegistry()
        registry.observe("h", 1.0)
        hist = registry.snapshot().histograms["h"]
        with pytest.raises(ValueError):
            hist.quantile(1.5)


# ----------------------------------------------------------------------
# Deterministic harness
# ----------------------------------------------------------------------
def _mixed_arrivals(n=60, seed=3, rate_hz=400.0, deadline_s=0.05):
    return synthetic_arrivals(
        seed, n, rate_hz=rate_hz, deadline_s=deadline_s
    )


class TestServeHarness:
    def test_transcript_is_bit_for_bit_reproducible(self):
        arrivals = _mixed_arrivals()
        first = run_trace(arrivals, policy=FixedPolicy(batch=4))
        second = run_trace(arrivals, policy=FixedPolicy(batch=4))
        assert first == second
        assert any(row[1] == "dispatch" for row in first)
        assert any(row[1] == "outcome" for row in first)

    def test_every_arrival_gets_exactly_one_outcome(self):
        arrivals = _mixed_arrivals(n=80)
        transcript = run_trace(arrivals, policy=FixedPolicy(batch=4))
        outcome_seqs = [r[2] for r in transcript if r[1] == "outcome"]
        assert sorted(outcome_seqs) == list(range(len(arrivals)))

    def test_overload_sheds_and_expires_deterministically(self):
        # Service time far above the arrival rate: the bounded queue
        # must shed and the tight deadline must expire requests, and
        # the exact decision sequence must replay.
        arrivals = _mixed_arrivals(n=50, rate_hz=2000.0, deadline_s=0.02)
        kwargs = dict(
            policy=FixedPolicy(batch=2, est_request_s=5e-3),
            max_queue=4,
            service_time=BatchCostModel(base_s=5e-3, per_request_s=1e-2),
        )
        first = run_trace(arrivals, **kwargs)
        second = run_trace(arrivals, **kwargs)
        assert first == second
        statuses = {r[5] for r in first if r[1] == "outcome"}
        assert SHED_QUEUE_FULL in statuses or SHED_DEADLINE in statuses
        assert EXPIRED in statuses or OK in statuses
        shed_rows = [r for r in first if r[1] == "shed"]
        assert shed_rows, "overload trace must shed"

    def test_stream_order_preserved_in_transcript(self):
        arrivals = _mixed_arrivals(n=60, rate_hz=1500.0, deadline_s=None)
        transcript = run_trace(arrivals, policy=FixedPolicy(batch=5))
        per_stream: dict = {}
        for row in transcript:
            if row[1] == "outcome" and row[4] >= 0:
                per_stream.setdefault(row[3], []).append(row[4])
        assert per_stream
        for stream, seqs in per_stream.items():
            assert seqs == sorted(seqs), f"stream {stream} reordered"

    def test_adaptive_policy_inside_harness(self):
        # Feed each batch's timing back to the policy: the planned
        # batch sizes must grow deterministically from min upward as
        # the estimate converges below default.
        arrivals = _mixed_arrivals(n=60, rate_hz=3000.0, deadline_s=None)

        def run_once():
            policy = AdaptiveBatchPolicy(
                target_batch_seconds=0.02,
                default_request_seconds=1e-2,
                max_batch=32,
            )
            core = BatcherCore(policy)

            def on_batch(planned, dt):
                policy.observe(dt, len(planned.tickets))

            harness = ServeHarness(
                core,
                service_time=BatchCostModel(
                    base_s=0.0, per_request_s=1e-3
                ),
                on_batch=on_batch,
            )
            transcript = harness.run(arrivals)
            return transcript, policy.batch_limit()

        first, limit1 = run_once()
        second, limit2 = run_once()
        assert first == second and limit1 == limit2
        assert limit1 == 20  # 0.02 s target / 1 ms measured
        sizes = [len(r[3]) for r in first if r[1] == "dispatch"]
        assert max(sizes) > 2  # grew past the cold-start size of 2

    def test_fake_clock_monotonic(self):
        clock = FakeClock()
        clock.advance(1.0)
        with pytest.raises(ValueError):
            clock.advance(-0.1)
        with pytest.raises(ValueError):
            clock.set(0.5)


# ----------------------------------------------------------------------
# The answer memo: exact value keys
# ----------------------------------------------------------------------
class TestKeyedOnce:
    """The service stores one answer per request template, and computes
    every solo request."""

    def test_gathered_burst_keys_and_stores_once_per_template(self, model):
        arrivals = synthetic_arrivals(7, 32, deadline_s=None)
        requests = [a.request for a in arrivals]
        templates = {
            repr((r.profile, r.n_cus, r.gpu_freq, r.bandwidth,
                  r.power_budget))
            if isinstance(r, PointRequest)
            else repr((r.profiles, r.space))
            for r in requests
        }
        assert len(templates) == 20
        cache: dict = {}

        async def scenario():
            svc = EvalService(model=model, cache=cache)
            async with svc:
                first = await asyncio.gather(
                    *(svc.submit(r) for r in requests)
                )
                entries = len(cache)
                second = await asyncio.gather(
                    *(svc.submit(r) for r in requests)
                )
            return first, entries, second

        first, entries, second = asyncio.run(scenario())
        for request, response in zip(requests, first):
            _assert_same_answer(response, request, model)
        # One answer per template; no union-grid entries.
        assert entries == len(templates)
        assert [r.path for r in second] == ["inline-cache"] * len(requests)
        for request, response in zip(requests, second):
            _assert_same_answer(response, request, model)

    def test_memo_is_bounded_oldest_out_first(self, model, comd):
        from repro.serve.service import MEMO_MAX_ENTRIES

        requests = [
            PointRequest(
                comd, n_cus=256, gpu_freq=7.0e8 + k * 1.0e5,
                bandwidth=2.0e12, power_budget=160.0,
            )
            for k in range(5000)
        ]
        cache: dict = {}

        async def scenario():
            async with EvalService(
                model=model, cache=cache, max_queue=len(requests)
            ) as svc:
                first = await asyncio.gather(
                    *(svc.submit(r) for r in requests)
                )
                filled = len(cache)
                again = await svc.submit(requests[0])
            return first, filled, again

        first, filled, again = asyncio.run(scenario())
        assert all(r.status == OK for r in first)
        assert filled == len(cache) == MEMO_MAX_ENTRIES
        # The first answer stored was the oldest: evicted, so computed
        # again, to the serial oracle's bits.
        assert again.path != "inline-cache"
        _assert_same_answer(again, requests[0], model)

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pool"])
    def test_repeated_simulation_is_computed_each_time(
        self, request, model, maxflops, pooled
    ):
        from repro.workloads.traces import TraceGenerator

        trace = TraceGenerator(maxflops, seed=9).generate(600)
        sim_request = SimulateRequest(trace)
        pool = request.getfixturevalue("pool") if pooled else None

        async def scenario():
            svc = _fresh_service(model=model, pool=pool)
            async with svc:
                first = await svc.submit(sim_request)
                second = await svc.submit(sim_request)
            return first, second

        for response in asyncio.run(scenario()):
            assert response.path == "solo"
            _assert_same_answer(response, sim_request, model)


def _serve_in_turn(requests, model, cache):
    """Serve *requests* one after another on a fresh service over the
    shared answer memo *cache*."""

    async def scenario():
        async with EvalService(model=model, cache=cache) as svc:
            return [await svc.submit(r) for r in requests]

    return asyncio.run(scenario())


def _nudged(value: float) -> float:
    """The next float toward 0.5: a valid new value of every numeric
    profile field of the catalog, and of every positive axis."""
    return float(np.nextafter(value, 0.5))


def _change_field(field):
    def change(profile, axes, model):
        value = getattr(profile, field)
        return profile.with_overrides(**{field: _nudged(value)}), axes, model
    return change


def _change_axis(axis, value=None):
    def change(profile, axes, model):
        new = _nudged(axes[axis]) if value is None else value
        return profile, {**axes, axis: new}, model
    return change


def _change_power_params(profile, axes, model):
    leakage = _nudged(model.power_params.cu_leakage_watt)
    return profile, axes, NodeModel(
        power_params=PowerParams(cu_leakage_watt=leakage)
    )


class TestAnswerMemoKey:
    """Two requests share an answer only when the model reads
    bit-identical inputs for them; a memo passed as ``cache=`` is shared
    between services."""

    _AXES = {
        "n_cus": 256, "gpu_freq": 1.0e9, "bandwidth": 2.0e12,
        "power_budget": 160.0,
    }

    def test_equal_values_answer_inline_across_services(self, comd):
        space = dict(
            cu_counts=(192, 256), frequencies=(1.0e9,), bandwidths=(2e12,)
        )
        cache: dict = {}
        stored = _serve_in_turn(
            [
                PointRequest(comd, **self._AXES),
                SweepRequest((comd,), DesignSpace(**space)),
            ],
            NodeModel(), cache,
        )
        assert len(cache) == 2
        # A value-equal copy of the profile, a fresh but equal model,
        # and a space built from lists rather than tuples.
        copy = dataclasses.replace(comd)
        assert copy is not comd
        repeats = [
            PointRequest(copy, **self._AXES),
            SweepRequest(
                (copy,),
                DesignSpace(**{k: list(v) for k, v in space.items()}),
            ),
        ]
        answered = _serve_in_turn(repeats, NodeModel(), cache)
        assert [r.path for r in answered] == ["inline-cache"] * 2
        for request, response, first in zip(repeats, answered, stored):
            assert response.value is first.value
            _assert_same_answer(response, request, NodeModel())

    @pytest.mark.parametrize(
        "change",
        [
            *(
                pytest.param(_change_field(f), id=f)
                for f in ProfileBatch.field_names()
            ),
            pytest.param(_change_axis("n_cus", 288), id="n_cus"),
            pytest.param(_change_axis("gpu_freq"), id="gpu_freq"),
            pytest.param(_change_axis("bandwidth"), id="bandwidth"),
            pytest.param(_change_axis("power_budget"), id="power_budget"),
            pytest.param(_change_power_params, id="power_params"),
        ],
    )
    def test_any_changed_input_misses(self, comd, change):
        cache: dict = {}
        _serve_in_turn(
            [PointRequest(comd, **self._AXES)], NodeModel(), cache
        )
        profile, axes, model = change(comd, self._AXES, NodeModel())
        request = PointRequest(profile, **axes)
        (response,) = _serve_in_turn([request], model, cache)
        assert response.path == "degraded"
        assert len(cache) == 2
        _assert_same_answer(response, request, model)

    def test_negative_zero_is_its_own_key(self, comd):
        cache: dict = {}
        zero, negative_zero = (
            PointRequest(
                comd.with_overrides(thrash_pressure=value), **self._AXES
            )
            for value in (0.0, -0.0)
        )
        _serve_in_turn([zero], NodeModel(), cache)
        (response,) = _serve_in_turn([negative_zero], NodeModel(), cache)
        assert response.path == "degraded"
        _assert_same_answer(response, negative_zero, NodeModel())


# ----------------------------------------------------------------------
# The asyncio service: oracle equivalence of every path
# ----------------------------------------------------------------------
class TestServiceOracle:
    def test_all_paths_bit_identical_no_pool(self, model):
        """Coalesced, degraded, and inline-cache answers all match the
        serial oracle exactly (inline batch execution, no pool)."""
        arrivals = synthetic_arrivals(11, 30, deadline_s=None)

        async def scenario():
            svc = _fresh_service(model=model)
            async with svc:
                first = await asyncio.gather(
                    *(svc.submit(a.request) for a in arrivals)
                )
                second = await asyncio.gather(
                    *(svc.submit(a.request) for a in arrivals)
                )
                stats = svc.stats()
            return first, second, stats

        first, second, stats = asyncio.run(scenario())
        for responses in (first, second):
            for arrival, response in zip(arrivals, responses):
                _assert_same_answer(response, arrival.request, model)
        paths = {r.path for r in first}
        assert "coalesced" in paths
        # Every repeat answers from the cache without a worker trip.
        assert all(r.path == "inline-cache" for r in second)
        assert stats["inline"] >= len(arrivals)
        _statuses_account_for_everything(stats)

    def test_degraded_solo_point_matches(self, model, lulesh):
        async def scenario():
            svc = _fresh_service(model=model)
            async with svc:
                return await svc.evaluate(lulesh, 320, 1.0e9, 3.0e12)

        response = asyncio.run(scenario())
        assert response.path == "degraded"  # nothing to coalesce with
        _assert_same_answer(
            response, PointRequest(lulesh, 320, 1.0e9, 3.0e12), model
        )

    def test_sweep_matches_explore_optima(self, model, maxflops, comd):
        space = DesignSpace(
            cu_counts=(192, 256, 320),
            frequencies=(0.9e9, 1.2e9),
            bandwidths=(1e12, 3e12),
        )
        request = SweepRequest((maxflops, comd), space)

        async def scenario():
            svc = _fresh_service(model=model)
            async with svc:
                return await svc.submit(request)

        response = asyncio.run(scenario())
        _assert_same_answer(response, request, model)

    def test_simulate_and_experiment_paths(self, model, maxflops):
        from repro.workloads.traces import TraceGenerator

        trace = TraceGenerator(maxflops, seed=5).generate(800)
        sim_request = SimulateRequest(trace)
        exp_request = ExperimentRequest("table1")

        async def scenario():
            svc = _fresh_service(model=model)
            async with svc:
                sim1 = await svc.submit(sim_request)
                exp1 = await svc.submit(exp_request)
                sim2 = await svc.submit(sim_request)
                exp2 = await svc.submit(exp_request)
            return sim1, exp1, sim2, exp2

        sim1, exp1, sim2, exp2 = asyncio.run(scenario())
        # Solo requests are computed every time, repeats included.
        for response in (sim1, exp1, sim2, exp2):
            assert response.path == "solo"
        _assert_same_answer(sim1, sim_request, model)
        _assert_same_answer(sim2, sim_request, model)
        assert exp1.status == OK and exp2.status == OK
        assert exp2.value is not exp1.value
        assert exp2.value.data == exp1.value.data

    def test_failed_sweep_is_contained(self, model, maxflops, comd):
        # An infeasible sweep (1 W budget: nothing fits) fails alone;
        # a good request in the same batch still answers.
        bad_space = DesignSpace(
            cu_counts=(192, 256),
            frequencies=(1e9,),
            bandwidths=(1e12,),
            power_budget=1.0,
        )
        bad = SweepRequest((maxflops,), bad_space)
        good = PointRequest(comd, 256, 1.0e9, 2.0e12)

        async def scenario():
            svc = _fresh_service(model=model)
            async with svc:
                return await asyncio.gather(
                    svc.submit(bad), svc.submit(good)
                )

        bad_response, good_response = asyncio.run(scenario())
        assert bad_response.status == FAILED
        assert isinstance(bad_response.error, RuntimeError)
        _assert_same_answer(good_response, good, model)

    @pytest.mark.parametrize(
        "bad",
        [
            {"gpu_freq": float("nan")},
            {"n_cus": 0},
            {"n_cus": 512},
            {"bandwidth": float("inf")},
            {"power_budget": float("nan")},
        ],
        ids=["freq-nan", "cus-0", "cus-512", "bw-inf", "budget-nan"],
    )
    def test_malformed_point_is_rejected_alone(self, model, comd, bad):
        # The bad point is refused before admission, so it never joins
        # the union grid its batch-mates are evaluated on.
        good = [
            PointRequest(comd, 256, 1.0e9, 2.0e12),
            PointRequest(comd, 320, 1.1e9, 3.0e12),
        ]
        axes = {"n_cus": 288, "gpu_freq": 1.0e9, "bandwidth": 2.0e12}

        async def scenario():
            svc = _fresh_service(model=model)
            async with svc:
                return await asyncio.gather(
                    svc.evaluate(comd, **{**axes, **bad}),
                    *(svc.submit(r) for r in good),
                    return_exceptions=True,
                )

        rejected, *answered = asyncio.run(scenario())
        assert isinstance(rejected, ValueError)
        for response, request in zip(answered, good):
            _assert_same_answer(response, request, model)

    def test_fixed_policy_serves(self, model, maxflops):
        request = PointRequest(maxflops, 256, 1.0e9, 2.0e12)

        async def scenario():
            svc = _fresh_service(model=model, policy=FixedPolicy())
            async with svc:
                return await asyncio.wait_for(svc.submit(request), 5.0)

        _assert_same_answer(asyncio.run(scenario()), request, model)

    def test_within_stream_order_holds_under_concurrency(self, model):
        arrivals = synthetic_arrivals(
            23, 40, n_streams=2, deadline_s=None
        )
        done: list[tuple[str, int]] = []

        async def scenario():
            svc = _fresh_service(model=model)

            async def one(i, request):
                response = await svc.submit(request)
                done.append((request.stream, i))
                return response

            async with svc:
                responses = await asyncio.gather(
                    *(one(i, a.request) for i, a in enumerate(arrivals))
                )
            return responses

        responses = asyncio.run(scenario())
        assert all(r.status == OK for r in responses)
        per_stream: dict = {}
        for stream, i in done:
            per_stream.setdefault(stream, []).append(i)
        for stream, order in per_stream.items():
            assert order == sorted(order), f"stream {stream} reordered"


# ----------------------------------------------------------------------
# Backpressure, deadlines, shutdown (no pool: deterministic timing)
# ----------------------------------------------------------------------
class TestServiceBackpressure:
    def test_queue_full_sheds_immediately(self, model, maxflops):
        async def scenario():
            svc = _fresh_service(model=model, max_queue=2)
            requests = [
                PointRequest(maxflops, 192 + 64 * (i % 4), 1.0e9, 1e12 * (1 + i))
                for i in range(8)
            ]
            async with svc:
                return await asyncio.gather(
                    *(svc.submit(r) for r in requests)
                )

        responses = asyncio.run(scenario())
        statuses = [r.status for r in responses]
        assert statuses.count(SHED_QUEUE_FULL) == len(responses) - 2
        assert statuses.count(OK) == 2
        assert all(s in STATUSES for s in statuses)

    def test_deadline_shed_at_admission(self, model, maxflops):
        async def scenario():
            svc = _fresh_service(
                model=model,
                policy=FixedPolicy(est_request_s=10.0),
            )
            async with svc:
                return await svc.evaluate(
                    maxflops, 256, 1.0e9, 2e12, deadline_s=0.01
                )

        response = asyncio.run(scenario())
        assert response.status == SHED_DEADLINE
        assert response.latency_s == 0.0

    def test_expiry_while_queued(self, model, maxflops):
        # A clock that advances 0.1 s per reading: by the dispatch-time
        # expiry check the 20 ms deadline has passed, with no sleep.
        readings = itertools.count(0.0, 0.1)

        async def scenario():
            svc = _fresh_service(
                model=model,
                policy=FixedPolicy(
                    est_request_s=1e-6, dispatch_overhead_s=0.0
                ),
                clock=lambda: next(readings),
            )
            async with svc:
                return await svc.evaluate(
                    maxflops, 256, 1.0e9, 2e12, deadline_s=0.02
                )

        response = asyncio.run(scenario())
        assert response.status == EXPIRED

    def test_submit_after_close_refused(self, model, maxflops):
        async def scenario():
            svc = _fresh_service(model=model)
            async with svc:
                pass
            return await svc.evaluate(maxflops, 256, 1.0e9, 2e12)

        response = asyncio.run(scenario())
        assert response.status == SHUTDOWN

    def test_close_flushes_queued_requests(self, model, maxflops):
        async def scenario():
            svc = _fresh_service(model=model)
            async with svc:
                pending = [
                    asyncio.ensure_future(
                        svc.evaluate(maxflops, 192 + 64 * i, 1.0e9, 2e12)
                    )
                    for i in range(3)
                ]
                await asyncio.sleep(0)  # admitted, not yet dispatched
                assert svc.core.depth() == 3
            return await asyncio.gather(*pending)

        responses = asyncio.run(
            asyncio.wait_for(scenario(), timeout=30)
        )
        assert [r.status for r in responses] == [SHUTDOWN] * 3


# ----------------------------------------------------------------------
# Pooled service: in-process grids, fault injection, shutdown-in-flight
# ----------------------------------------------------------------------
class TestServiceOnPool:
    def test_grid_requests_never_touch_the_pool(self, pool, model):
        """Point and sweep requests evaluate in-process even when the
        service has a pool; a simulation is still one pool task."""
        from repro.workloads.catalog import APPLICATIONS
        from repro.workloads.traces import TraceGenerator

        arrivals = synthetic_arrivals(43, 32, deadline_s=None)
        trace = TraceGenerator(
            APPLICATIONS["CoMD"], seed=43
        ).generate(5_000)
        sim_request = SimulateRequest(trace)

        async def scenario():
            svc = _fresh_service(model=model, pool=pool)
            async with svc:
                tasks_before = pool.stats().tasks
                responses = await asyncio.gather(
                    *(svc.submit(a.request) for a in arrivals)
                )
                tasks_after_burst = pool.stats().tasks
                sim_response = await svc.submit(sim_request)
                tasks_after_sim = pool.stats().tasks
            return (
                responses, sim_response,
                (tasks_before, tasks_after_burst, tasks_after_sim),
            )

        responses, sim_response, tasks = asyncio.run(
            asyncio.wait_for(scenario(), timeout=300)
        )
        for arrival, response in zip(arrivals, responses):
            _assert_same_answer(response, arrival.request, model)
        assert tasks[1] == tasks[0]
        assert sim_response.path == "solo"
        _assert_same_answer(sim_response, sim_request, model)
        assert tasks[2] == tasks[1] + 1

    def test_coalesced_pool_answers_match_oracle(self, pool, model):
        arrivals = synthetic_arrivals(31, 24, deadline_s=None)

        async def scenario():
            svc = _fresh_service(model=model, pool=pool)
            async with svc:
                responses = await asyncio.gather(
                    *(svc.submit(a.request) for a in arrivals)
                )
                stats = svc.stats()
            return responses, stats

        responses, stats = asyncio.run(
            asyncio.wait_for(scenario(), timeout=300)
        )
        for arrival, response in zip(arrivals, responses):
            _assert_same_answer(response, arrival.request, model)
        assert any(r.path == "coalesced" for r in responses)
        _statuses_account_for_everything(stats)

    def test_worker_kill_mid_serve_no_lost_answers(self, pool, model):
        """Kill every worker while requests are in flight: the pool
        requeues and respawns, every request still gets exactly one
        bit-identical answer, and the restart surfaces in stats()."""
        from repro.workloads.catalog import APPLICATIONS
        from repro.workloads.traces import TraceGenerator

        arrivals = synthetic_arrivals(37, 10, deadline_s=None)
        trace = TraceGenerator(
            APPLICATIONS["CoMD"], seed=37
        ).generate(60_000)
        requests = [a.request for a in arrivals] + [SimulateRequest(trace)]
        # A fresh simulation (no inline hit) for the second round.
        late_sim = SimulateRequest(
            TraceGenerator(APPLICATIONS["CoMD"], seed=38).generate(5_000)
        )

        async def scenario():
            svc = _fresh_service(model=model, pool=pool)
            restarts_before = pool.stats().worker_restarts
            async with svc:
                pending = [
                    asyncio.ensure_future(svc.submit(r)) for r in requests
                ]
                await asyncio.sleep(0.15)  # batch dispatched / running
                for index in range(pool.n_shards):
                    pool.kill_worker(index)
                first = await asyncio.gather(*pending)
                # A second round forces dead-worker detection even if
                # the first batch squeaked through before the kill: its
                # simulation needs the pool.
                second = await asyncio.gather(
                    *(
                        svc.evaluate(
                            r.profile, r.n_cus, r.gpu_freq, r.bandwidth,
                            power_budget=150.0,  # distinct: no inline hit
                        )
                        for r in requests
                        if isinstance(r, PointRequest)
                    ),
                    svc.submit(late_sim),
                )
                stats = svc.stats()
            return first, second, stats, restarts_before

        first, second, stats, restarts_before = asyncio.run(
            asyncio.wait_for(scenario(), timeout=300)
        )
        for request, response in zip(requests, first):
            _assert_same_answer(response, request, model)
        assert all(r.status == OK for r in second)
        _assert_same_answer(second[-1], late_sim, model)
        assert stats["pool_worker_restarts"] >= restarts_before + 1
        # Exactly one outcome per admission: nothing lost or doubled.
        _statuses_account_for_everything(stats)
        assert stats["admitted"] == len(first) + len(second)

    def test_pool_shutdown_mid_serve_batch_resolves_all(self, model):
        """Shutting the pool down under a live service must resolve
        every pending request (shutdown/failed), not hang or leak."""
        from repro.workloads.catalog import APPLICATIONS
        from repro.workloads.traces import TraceGenerator

        arrivals = synthetic_arrivals(41, 8, deadline_s=None)
        trace = TraceGenerator(
            APPLICATIONS["CoMD"], seed=41
        ).generate(60_000)
        own_pool = _new_pool(2)

        async def scenario():
            svc = _fresh_service(model=model, pool=own_pool)
            async with svc:
                pending = [
                    asyncio.ensure_future(svc.submit(SimulateRequest(trace)))
                ]
                pending += [
                    asyncio.ensure_future(svc.submit(a.request))
                    for a in arrivals
                ]
                # Shut down once the batch is in flight; a fixed sleep
                # can outlast the whole batch.
                while svc.core.inflight() == 0:
                    await asyncio.sleep(0.001)
                own_pool.shutdown()
                return await asyncio.gather(*pending)

        try:
            responses = asyncio.run(
                asyncio.wait_for(scenario(), timeout=120)
            )
        finally:
            own_pool.shutdown()
        assert len(responses) == len(arrivals) + 1
        statuses = {r.status for r in responses}
        assert statuses <= {SHUTDOWN, FAILED, OK}
        assert SHUTDOWN in statuses or FAILED in statuses


# ----------------------------------------------------------------------
# Request tracing: a request's path is linked by its ticket seq
# ----------------------------------------------------------------------
class TestServeTracing:
    def test_single_request_renders_connected_tree(self, pool, model):
        """One traced simulation request: its async request and
        queue-wait pairs carry its seq, the batch that served it lists
        it alone, runs off the loop thread and holds the pool.run span,
        and the worker task is labelled with the seq."""
        import os

        from repro.workloads.catalog import APPLICATIONS
        from repro.workloads.traces import TraceGenerator

        trace = TraceGenerator(APPLICATIONS["CoMD"], seed=5).generate(5_000)
        loop_tid = threading.get_ident()  # asyncio.run uses this thread

        async def scenario():
            svc = _fresh_service(model=model, pool=pool)
            async with svc:
                return await svc.submit(SimulateRequest(trace))

        with obs_trace.trace() as tracer:
            response = asyncio.run(
                asyncio.wait_for(scenario(), timeout=300)
            )
        assert response.status == OK

        by_name: dict[str, list] = {}
        for event in tracer.events:
            by_name.setdefault(event["name"], []).append(event)
        req_begin, req_end = by_name["serve.SimulateRequest"]
        seq = req_begin["id"]
        assert (req_begin["ph"], req_end["ph"], req_end["id"]) == (
            "b", "e", seq,
        )
        wait_begin, wait_end = by_name["serve.queue_wait"]
        assert wait_begin["id"] == wait_end["id"] == seq
        assert wait_begin["args"] == {"seq": seq}
        assert req_begin["ts"] <= wait_end["ts"] <= req_end["ts"]

        (batch,) = by_name["serve.batch"]
        assert batch["args"]["seqs"] == [seq]
        assert batch["tid"] != loop_tid
        (run,) = by_name["pool.run"]
        assert run["tid"] == batch["tid"]
        assert batch["ts"] <= run["ts"]
        assert run["ts"] + run["dur"] <= batch["ts"] + batch["dur"]

        (task,) = by_name[f"serve-solo-{seq}"]
        assert task["pid"] != os.getpid()

    def test_multi_request_batch_links_request_spans(
        self, model, maxflops
    ):
        """A batch serving several requests lists all their seqs, and
        each request still gets its own queue-wait pair under its seq.
        A batch of points runs on the event loop's thread."""
        loop_tid = threading.get_ident()  # asyncio.run uses this thread

        async def scenario():
            # A fixed batch limit: the three gathered points are one batch.
            svc = _fresh_service(model=model, policy=FixedPolicy())
            async with svc:
                return await asyncio.gather(
                    *(
                        svc.evaluate(
                            maxflops, 192 + 64 * i, 1.0e9, 2e12
                        )
                        for i in range(3)
                    )
                )

        with obs_trace.trace() as tracer:
            responses = asyncio.run(
                asyncio.wait_for(scenario(), timeout=300)
            )
        assert all(r.status == OK for r in responses)

        begins = [e for e in tracer.events if e["ph"] == "b"]
        request_seqs = {
            e["id"] for e in begins if e["name"] == "serve.PointRequest"
        }
        assert len(request_seqs) == 3
        (batch,) = [e for e in tracer.events if e["name"] == "serve.batch"]
        assert set(batch["args"]["seqs"]) == request_seqs
        assert batch["tid"] == loop_tid
        wait_seqs = {
            e["id"] for e in begins if e["name"] == "serve.queue_wait"
        }
        assert wait_seqs == request_seqs

    def test_untraced_requests_record_nothing(self, model, maxflops):
        async def scenario():
            svc = _fresh_service(model=model)
            async with svc:
                return await svc.evaluate(maxflops, 256, 1.0e9, 2e12)

        response = asyncio.run(scenario())
        assert response.status == OK
        assert obs_trace.active_tracer() is None


# ----------------------------------------------------------------------
# Workload generator and CLI
# ----------------------------------------------------------------------
class TestWorkload:
    def test_deterministic_for_seed(self):
        a = synthetic_arrivals(5, 50, rate_hz=100.0)
        b = synthetic_arrivals(5, 50, rate_hz=100.0)
        assert a == b
        c = synthetic_arrivals(6, 50, rate_hz=100.0)
        assert a != c

    def test_open_loop_times_increase(self):
        arrivals = synthetic_arrivals(1, 40, rate_hz=500.0)
        times = [a.at for a in arrivals]
        assert times == sorted(times) and times[-1] > 0

    def test_closed_loop_all_at_zero(self):
        arrivals = synthetic_arrivals(1, 10)
        assert all(a.at == 0.0 for a in arrivals)

    def test_mix_and_validation(self):
        arrivals = synthetic_arrivals(
            2, 200, point_fraction=0.6, simulate_fraction=0.05
        )
        kinds = {type(a.request).__name__ for a in arrivals}
        assert kinds == {
            "PointRequest", "SweepRequest", "SimulateRequest"
        }
        with pytest.raises(ValueError):
            synthetic_arrivals(0, -1)
        with pytest.raises(ValueError):
            synthetic_arrivals(0, 1, point_fraction=0.9,
                               simulate_fraction=0.5)

    def test_templates_repeat(self):
        arrivals = synthetic_arrivals(
            3, 100, point_fraction=1.0, n_templates=8, deadline_s=None
        )
        distinct = {
            (a.request.profile.name, a.request.n_cus,
             a.request.gpu_freq, a.request.bandwidth)
            for a in arrivals
        }
        assert len(distinct) <= 8 < len(arrivals)


class TestServeCli:
    def test_serve_bench_cli_smoke(self, capsys, tmp_path):
        from repro.__main__ import main

        manifest_path = tmp_path / "serve_manifest.json"
        code = main(
            [
                "serve",
                "--serve-requests", "12",
                "--serve-deadline-ms", "0",
                "--metrics-out", str(manifest_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve bench:" in out
        import json

        manifest = json.loads(manifest_path.read_text())
        report = manifest["extra"]["serve_bench"]
        assert report["n_requests"] == 12
        # Latency runs from each request's arrival to its response, so
        # even an inline memo answer takes measurable time.
        assert report["p50_ms"] > 0
        # How late the generator issued each submit is reported beside
        # it; a closed-loop burst is due at once, so never early.
        assert report["late_p99_ms"] >= 0
        assert "submits late p99" in out

    def test_serve_bench_spawns_a_pool_only_for_the_baseline(
        self, monkeypatch
    ):
        # The synthetic mix sends the service no solo request, so only
        # the naive baseline needs worker processes.
        from repro.serve import bench

        pools = []

        class RecordingPool(ShardedPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(bench, "ShardedPool", RecordingPool)
        report = bench.run_serve_bench(n_requests=8)
        assert report.ok == 8 and report.baseline_rps is None
        assert pools == []
        report = bench.run_serve_bench(n_requests=8, baseline=True)
        assert report.ok == 8 and report.baseline_rps > 0
        assert len(pools) == 1
        with pytest.raises(RuntimeError, match="shut down"):
            pools[0].run([])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_pass_leaves_every_request_inline(self, seed):
        # The warm burst replays the requests without their deadlines,
        # so it sheds none of them and the measured pass (deadlines
        # kept) answers every one from the memo.
        from repro.serve import bench

        report = bench.run_serve_bench(seed=seed, n_requests=200)
        assert report.inline_hits == 200

    def test_no_artifacts_errors(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main([])


class TestRequestTypes:
    def test_point_to_space_singleton(self, maxflops):
        request = PointRequest(maxflops, 256, 1.0e9, 2e12,
                               power_budget=120.0)
        space = request.to_space()
        assert space.size == 1
        assert space.power_budget == 120.0

    def test_from_config(self, maxflops, best_mean_config):
        request = PointRequest.from_config(maxflops, best_mean_config)
        assert request.n_cus == best_mean_config.n_cus

    @pytest.mark.parametrize(
        "bad",
        [
            {"gpu_freq": float("nan")},
            {"n_cus": 0},
            {"n_cus": 512},
            {"n_cus": 320.0},
            {"bandwidth": float("inf")},
            {"bandwidth": -3.0e12},
            {"power_budget": float("nan")},
            {"power_budget": 0.0},
            {"n_cus": 100},  # does not divide across 8 GPU chiplets
        ],
    )
    def test_point_rejects_malformed_values(self, maxflops, bad):
        axes = {"n_cus": 320, "gpu_freq": 1.0e9, "bandwidth": 3.0e12}
        with pytest.raises(ValueError):
            PointRequest(maxflops, **{**axes, **bad})

    @pytest.mark.parametrize(
        "deadline_s", [float("nan"), float("inf"), -0.1, 0.0]
    )
    def test_every_request_rejects_bad_deadline(self, maxflops, deadline_s):
        requests = (
            lambda: PointRequest(
                maxflops, 320, 1.0e9, 3.0e12, deadline_s=deadline_s
            ),
            lambda: SweepRequest(
                (maxflops,), DesignSpace(), deadline_s=deadline_s
            ),
            lambda: ExperimentRequest("fig4", deadline_s=deadline_s),
            lambda: SimulateRequest(None, deadline_s=deadline_s),
        )
        for build in requests:
            with pytest.raises(ValueError, match="deadline_s"):
                build()

    def test_sweep_rejects_a_non_space(self, maxflops):
        # A space that cannot key a sweep group must not reach the
        # dispatcher.
        with pytest.raises(TypeError, match="DesignSpace"):
            SweepRequest((maxflops,), {"cu_counts": [256]})

    def test_sweep_rejects_duplicates(self, maxflops):
        with pytest.raises(ValueError):
            SweepRequest((maxflops, maxflops), DesignSpace())
        with pytest.raises(ValueError):
            SweepRequest((), DesignSpace())

    def test_response_latency(self):
        response = ServeResponse(
            status=OK, admitted_at=1.0, completed_at=3.5
        )
        assert response.ok and response.latency_s == 2.5
