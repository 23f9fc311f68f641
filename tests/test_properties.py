"""Hypothesis property tests on core invariants across modules.

These complement the per-module tests with randomized invariants: the
performance model's monotonicities and conservation laws, the power
model's positivity and scaling, and the data-structure substrates'
behavioural contracts.
"""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.config import DesignSpace, EHPConfig
from repro.core.exascale import ExascaleSystem
from repro.core.governor import DvfsGovernor
from repro.core.node import NodeModel
from repro.core.thermal_governor import ThermalGovernor, ThermalPhase
from repro.fleet.link import LinkTierParams, derate
from repro.fleet.spec import FleetGroup, FleetSpec
from repro.memsys.dram import HBMStack, HBMTimings
from repro.memsys.dramcache import DramCache
from repro.memsys.interleave import AddressInterleaver
from repro.memsys.manager import (
    FirstTouchPolicy,
    HotnessMigrationPolicy,
    MemoryManager,
)
from repro.memsys.memnet import ExternalMemoryNetwork, MemoryModule
from repro.memsys.nvm import NVMModule, NVMParams
from repro.memsys.rowbuffer import RowBufferSim
from repro.noc.simulator import NocSimulator, SimMessage
from repro.noc.topology import EHPTopology
from repro.noc.traffic import TrafficMatrix, gpu_dram_traffic_matrix
from repro.obs.export import PeriodicSampler
from repro.perfmodel.machine import LinkDerate, MachineParams
from repro.perfmodel.roofline import evaluate_kernel, evaluate_kernel_grid
from repro.power.components import PowerParams
from repro.power.vf import VFCurve
from repro.ras.checkpoint import CheckpointModel
from repro.ras.ecc import ecc_overhead_bits
from repro.serve import (
    AdaptiveBatchPolicy,
    BatcherCore,
    FixedPolicy,
)
from repro.serve.workload import synthetic_arrivals
from repro.sim.apu_sim import ApuSimConfig, ApuSimulator
from repro.sim.cache_sim import CacheLevel, CacheSim
from repro.thermal.floorplan import EHPFloorplan, Region
from repro.thermal.grid import ThermalGrid
from repro.thermal.transient import PowerPhase, TransientSolver
from repro.workloads.catalog import APPLICATIONS
from repro.workloads.kernels import KernelCategory, KernelProfile, ProfileBatch
from repro.workloads.traces import MemoryTrace, TraceGenerator

cus = st.sampled_from([192, 224, 256, 288, 320, 352, 384])
freqs = st.floats(min_value=0.7e9, max_value=1.5e9)
bws = st.floats(min_value=1e12, max_value=7e12)


def random_profile(draw) -> KernelProfile:
    return KernelProfile(
        name="h",
        category=KernelCategory.BALANCED,
        description="hypothesis",
        flops=1e12,
        bytes_per_flop=draw(st.floats(min_value=0.001, max_value=2.5)),
        parallel_fraction=draw(st.floats(min_value=0.3, max_value=1.0)),
        cache_hit_rate=draw(st.floats(min_value=0.05, max_value=0.9)),
        thrash_pressure=draw(st.floats(min_value=0.0, max_value=1.5)),
        latency_sensitivity=draw(st.floats(min_value=0.005, max_value=0.9)),
        mlp_per_cu=draw(st.floats(min_value=4.0, max_value=96.0)),
        cu_utilization=draw(st.floats(min_value=0.2, max_value=0.98)),
    )


profiles = st.builds(lambda d: random_profile(lambda s: d.draw(s)), st.data())


class TestPerformanceModelInvariants:
    @given(st.data(), cus, freqs, bws)
    @settings(max_examples=50, deadline=None)
    def test_time_and_rates_positive(self, data, n, f, b):
        p = random_profile(data.draw)
        m = evaluate_kernel(p, n, f, b)
        assert float(m.time) > 0
        assert float(m.flops_rate) > 0
        assert float(m.hit_rate) >= 0

    @given(st.data(), cus, freqs, bws)
    @settings(max_examples=50, deadline=None)
    def test_achieved_close_to_hardware_peak(self, data, n, f, b):
        # The CU-scaling power law anchors at the 256-CU reference, so
        # strongly sub-linear kernels evaluated *below* the anchor can
        # slightly exceed the naive N*64*f peak (fewer CUs -> less
        # divergence/contention -> higher per-CU throughput). Bounded by
        # (256/N)^(1-alpha) * issue_efficiency ~= 1.11 at the grid edge.
        p = random_profile(data.draw)
        peak = 64.0 * n * f
        assert float(evaluate_kernel(p, n, f, b).flops_rate) <= peak * 1.15

    @given(st.data(), cus, freqs, bws)
    @settings(max_examples=50, deadline=None)
    def test_traffic_conservation(self, data, n, f, b):
        p = random_profile(data.draw)
        m = evaluate_kernel(p, n, f, b, ext_fraction=0.4)
        miss = float(m.dram_traffic + m.ext_traffic)
        assert miss <= float(m.llc_traffic) + 1e-6

    @given(st.data(), cus, freqs)
    @settings(max_examples=40, deadline=None)
    def test_bandwidth_monotone(self, data, n, f):
        p = random_profile(data.draw)
        t1 = float(evaluate_kernel(p, n, f, 2e12).time)
        t2 = float(evaluate_kernel(p, n, f, 2.5e12).time)
        assert t2 <= t1 * (1 + 1e-9)

    @given(st.data(), cus, bws)
    @settings(max_examples=40, deadline=None)
    def test_frequency_degradation_bounded(self, data, n, b):
        # Higher frequency can *hurt* memory-bound kernels (the
        # contention-driven decline the paper's Section IV describes).
        # The bounded queueing term caps the loss: steepest right at the
        # saturation knee (low-bandwidth, latency-bound corner cases),
        # never a collapse (worst case: the latency multiplier rises
        # from 1+2*rho^4 toward its 3x cap as rho crosses 1).
        p = random_profile(data.draw)
        t1 = float(evaluate_kernel(p, n, 1.0e9, b).time)
        t2 = float(evaluate_kernel(p, n, 1.1e9, b).time)
        assert t2 <= t1 * 1.5


class TestPowerModelInvariants:
    @given(st.data(), cus, freqs, bws)
    @settings(max_examples=40, deadline=None)
    def test_node_power_positive_and_bounded(self, data, n, f, b):
        p = random_profile(data.draw)
        model = NodeModel()
        ev = model.evaluate_arrays(p, float(n), f, b)
        power = float(ev.node_power)
        assert 30.0 < power < 600.0

    @given(cus, freqs)
    @settings(max_examples=40, deadline=None)
    def test_cu_dynamic_monotone_in_frequency(self, n, f):
        params = PowerParams()
        assume(f * 1.1 <= 1.6e9)
        lo = float(params.cu_dynamic_power(n, f, 0.5))
        hi = float(params.cu_dynamic_power(n, f * 1.1, 0.5))
        assert hi > lo

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_activity_scales_dynamic_power(self, activity):
        params = PowerParams()
        full = float(params.cu_dynamic_power(320, 1e9, 1.0))
        part = float(params.cu_dynamic_power(320, 1e9, activity))
        assert part == pytest.approx(full * activity, rel=1e-9)


class TestBatchPointIdentity:
    """A design point gives the same bits alone as inside a batch: the
    model spells its powers as ufunc calls (``np.power``, ``v * v``),
    never numpy-scalar ``**``, which runs libm ``pow`` where an array
    runs numpy's own loop."""

    @given(
        st.data(),
        st.sampled_from(sorted(APPLICATIONS)),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.0, max_value=1e-6),
    )
    @settings(max_examples=60, deadline=None)
    def test_point_alone_equals_point_in_batch(self, data, name, n, lat):
        def axis(lo, hi):
            values = st.floats(min_value=lo, max_value=hi)
            return np.array(
                data.draw(st.lists(values, min_size=n, max_size=n))
            )

        cu, fq, bw = axis(1.0, 1024.0), axis(0.2e9, 2.5e9), axis(1e11, 8e12)
        share = st.floats(min_value=0.0, max_value=1.0)
        ext = data.draw(st.one_of(
            st.none(), share, st.lists(share, min_size=n, max_size=n)
        ))
        profile = APPLICATIONS[name]
        model = NodeModel()
        batch = model.evaluate_arrays(
            profile, cu, fq, bw, ext_fraction=ext, extra_latency=lat
        )
        for i in range(n):
            alone = model.evaluate_arrays(
                profile, cu[i], fq[i], bw[i],
                ext_fraction=ext[i] if isinstance(ext, list) else ext,
                extra_latency=lat,
            )
            for part in ("metrics", "power"):
                many, one = getattr(batch, part), getattr(alone, part)
                for field in dataclasses.fields(one):
                    got = np.asarray(getattr(one, field.name)).tobytes()
                    want = getattr(many, field.name)[i].tobytes()
                    assert got == want, (part, field.name, i)


class TestSubstrateContracts:
    @given(st.integers(min_value=1, max_value=4096))
    @settings(max_examples=30, deadline=None)
    def test_ecc_overhead_monotone_nonincreasing_relative(self, bits):
        # Wider words amortize check bits: relative overhead at 2x the
        # width never exceeds the overhead at 1x.
        r1 = ecc_overhead_bits(bits) / bits
        r2 = ecc_overhead_bits(2 * bits) / (2 * bits)
        assert r2 <= r1 + 1e-12

    @given(
        st.lists(
            st.integers(min_value=0, max_value=1 << 30),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_interleaver_partitions_addresses(self, addrs):
        il = AddressInterleaver()
        hist = il.channel_histogram(np.array(addrs))
        assert hist.sum() == len(addrs)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=1 << 20),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_dram_cache_accounting(self, addrs):
        cache = DramCache(capacity_bytes=64 * 4096, associativity=4)
        stats = cache.run_trace(np.array(addrs))
        assert stats.hits + stats.misses == len(addrs)
        assert cache.resident_pages <= 64
        assert stats.writebacks <= stats.evictions

    @given(
        st.floats(min_value=3600.0, max_value=1e7),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_checkpoint_optimal_interval_is_optimal(self, mttf, factor):
        # Young's interval is the first-order optimum, valid for
        # MTTF >> checkpoint cost; within that regime no fixed interval
        # beats it by more than the approximation error.
        cm = CheckpointModel()
        assume(abs(factor - 1.0) > 0.05)
        best = cm.efficiency(mttf)
        other = cm.efficiency(mttf, cm.optimal_interval(mttf) * factor)
        assert other <= best + 2e-2

    @given(st.integers(min_value=192, max_value=384))
    @settings(max_examples=30, deadline=None)
    def test_config_validation_total(self, n):
        if n % 8:
            with pytest.raises(ValueError):
                EHPConfig(n_cus=n)
        else:
            assert EHPConfig(n_cus=n).cus_per_chiplet == n // 8


def _small_hierarchy() -> CacheSim:
    return CacheSim(
        [
            CacheLevel("L1", 8 * 1024, 64, 4),
            CacheLevel("LLC", 64 * 1024, 64, 8),
        ]
    )


def _trace_from(addresses, flops) -> MemoryTrace:
    addresses = np.asarray(addresses, dtype=np.int64) * 64
    return MemoryTrace(
        addresses=addresses,
        is_write=np.zeros(len(addresses), dtype=bool),
        flops_between=np.asarray(flops, dtype=float),
        footprint_bytes=float(addresses.max() + 64),
    )


class TestSimulatorInvariants:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=1 << 20),
            min_size=1,
            max_size=400,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_cache_hit_rates_bounded_and_conserved(self, lines):
        sim = _small_hierarchy()
        stats = sim.run_trace(np.asarray(lines, dtype=np.int64) * 64)
        for rate in stats.values():
            assert 0.0 <= rate <= 1.0
        l1, llc = sim.levels
        # Inclusive hierarchy: every L1 miss reaches the LLC, every LLC
        # miss reaches DRAM.
        assert l1.stats.accesses == len(lines)
        assert llc.stats.accesses == l1.stats.misses
        assert sim.dram_accesses == llc.stats.misses

    @given(
        st.integers(min_value=1, max_value=600),
        st.integers(min_value=1, max_value=1200),
    )
    @settings(max_examples=30, deadline=None)
    def test_dram_fraction_monotone_in_working_set(self, w1, delta):
        # Cyclic sweeps over a working set of W lines: under LRU a larger
        # working set can only miss more (W/n compulsory misses while the
        # set fits, every access once it thrashes).
        w2 = w1 + delta
        n = 2400
        fractions = []
        for w in (w1, w2):
            sim = _small_hierarchy()
            addrs = (np.arange(n, dtype=np.int64) % w) * 64
            fractions.append(sim.run_trace(addrs)["dram_fraction"])
        assert fractions[1] >= fractions[0] - 1e-12

    @given(
        st.data(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_flops_rate_bounded_by_peak(self, data, n_cus, wpc):
        n = data.draw(st.integers(min_value=1, max_value=120))
        lines = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=1 << 16),
                min_size=n,
                max_size=n,
            )
        )
        flops = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1e6),
                min_size=n,
                max_size=n,
            )
        )
        config = ApuSimConfig(n_cus=n_cus, wavefronts_per_cu=wpc)
        res = ApuSimulator(config).run(_trace_from(lines, flops))
        peak = config.n_cus * config.flops_per_cu_cycle * config.freq_hz
        assert res.flops_rate <= peak * (1.0 + 1e-9)
        assert 0.0 <= res.cu_utilization <= 1.0
        assert 0.0 <= res.dram_fraction <= 1.0
        for rate in res.hit_rates.values():
            assert 0.0 <= rate <= 1.0
        assert res.mean_memory_latency >= config.l1_latency - 1e-18

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_engines_agree_on_random_traces(self, data):
        # Randomized counterpart of tests/test_sim_oracle.py: the fast
        # path and the event-driven reference agree on arbitrary (not
        # generator-shaped) traces.
        n = data.draw(st.integers(min_value=1, max_value=80))
        lines = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=1 << 12),
                min_size=n,
                max_size=n,
            )
        )
        flops = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1e5),
                min_size=n,
                max_size=n,
            )
        )
        trace = _trace_from(lines, flops)
        sim = ApuSimulator(ApuSimConfig(n_cus=2, wavefronts_per_cu=3))
        a = sim.run(trace)
        e = sim.run_reference(trace)
        assert a.elapsed == pytest.approx(e.elapsed, rel=1e-9)
        assert a.total_flops == pytest.approx(e.total_flops, rel=1e-9)
        assert a.dram_accesses == e.dram_accesses
        assert a.mean_memory_latency == pytest.approx(
            e.mean_memory_latency, rel=1e-9
        )
        assert a.hit_rates == e.hit_rates


class TestMemsysEngineProperties:
    """Randomized agreement of the memory-system fast paths with their
    scalar per-unit references, and structural invariants
    (deterministic grid: tests/test_memsys_oracle.py)."""

    addresses = st.lists(
        st.integers(min_value=0, max_value=1 << 24), min_size=0, max_size=400
    )

    @given(addresses, st.sampled_from([1, 4, 32]))
    @settings(max_examples=30, deadline=None)
    def test_rowbuffer_engines_agree(self, addrs, n_banks):
        stream = np.asarray(addrs, dtype=np.int64)
        a = RowBufferSim(n_banks=n_banks, row_bytes=512)
        b = RowBufferSim(n_banks=n_banks, row_bytes=512)
        sa = a.run(stream)
        for address in stream.tolist():
            b.access(address)
        sb = b.stats
        assert (sa.hits, sa.misses, sa.bank_conflicts) == (
            sb.hits,
            sb.misses,
            sb.bank_conflicts,
        )
        assert 0.0 <= sa.hit_rate <= 1.0
        assert sa.accesses == len(addrs)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_dramcache_engines_agree(self, data):
        addrs = data.draw(self.addresses)
        writes = data.draw(
            st.lists(
                st.booleans(), min_size=len(addrs), max_size=len(addrs)
            )
        )
        assoc = data.draw(st.sampled_from([1, 2, 8]))
        page = data.draw(st.sampled_from([256, 4096]))
        capacity = assoc * page * data.draw(st.sampled_from([1, 4, 64]))
        seams = sorted(data.draw(st.lists(
            st.integers(min_value=0, max_value=len(addrs)), max_size=4
        )))
        stream = np.asarray(addrs, dtype=np.int64)
        wr = np.asarray(writes, dtype=bool)
        a = DramCache(capacity, page, assoc)
        b = DramCache(capacity, page, assoc)
        # The stream goes in as chunks split at random seams, so warm
        # state carries across access_many calls.
        flags = np.concatenate([
            a.access_many(chunk, w)
            for chunk, w in zip(np.split(stream, seams), np.split(wr, seams))
        ])
        expected = [b.access(int(x), bool(w)) for x, w in zip(stream, wr)]
        assert flags.tolist() == expected
        assert (a.stats.hits, a.stats.misses, a.stats.evictions,
                a.stats.writebacks) == (
            b.stats.hits, b.stats.misses, b.stats.evictions,
            b.stats.writebacks,
        )
        # Structural invariants: bounded occupancy, conservation.
        assert 0.0 <= a.stats.hit_rate <= 1.0
        assert a.stats.hits + a.stats.misses == len(addrs)
        assert a.resident_pages <= a.n_sets * a.associativity
        for ways in a._sets.values():
            assert 0 < len(ways) <= a.associativity
        # Per-set LRU order and dirty bits equal the oracle's.
        assert {k: list(w.items()) for k, w in a._sets.items()} == {
            k: list(w.items()) for k, w in b._sets.items()
        }

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_manager_engines_agree(self, data):
        n_epochs = data.draw(st.integers(min_value=1, max_value=4))
        capacity_pages = data.draw(st.integers(min_value=1, max_value=40))
        limit = data.draw(st.one_of(st.none(), st.integers(0, 10)))
        hot = data.draw(st.booleans())
        page = 4096

        def policy():
            from repro.memsys.manager import (
                FirstTouchPolicy,
                HotnessMigrationPolicy,
            )

            return (
                HotnessMigrationPolicy(limit) if hot else FirstTouchPolicy()
            )

        from repro.memsys.manager import MemoryManager

        a = MemoryManager(capacity_pages * page, policy(), page)
        b = MemoryManager(capacity_pages * page, policy(), page)
        for _ in range(n_epochs):
            addrs = data.draw(self.addresses)
            stream = np.asarray(addrs, dtype=np.int64)
            fa = a.epoch_array(stream)
            fb = b.epoch(stream)
            assert fa == pytest.approx(fb, rel=1e-9)
            assert 0.0 <= fa <= 1.0
            assert a.resident_pages <= a.capacity_pages
        assert a.placement == b.placement
        assert a.total_migrated == b.total_migrated


# ----------------------------------------------------------------------
# Public constructors and entry points reject bad fields with a clean
# ValueError
# ----------------------------------------------------------------------
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# Every float (NaN and 256.0 included) and every bool is a bad count.
_NOT_INT = st.one_of(st.floats(), st.booleans())
_BAD_POSITIVE = st.one_of(_NON_FINITE, st.floats(max_value=0.0))
_BAD_NON_NEGATIVE = st.one_of(
    _NON_FINITE, st.floats(max_value=0.0, exclude_max=True)
)
_BAD_FRACTION = st.one_of(
    _NON_FINITE,
    st.floats(max_value=0.0, exclude_max=True),
    st.floats(min_value=1.0, exclude_min=True),
)
_BAD_COUNT = st.one_of(_NOT_INT, st.integers(max_value=0))
_BAD_NON_NEGATIVE_COUNT = st.one_of(_NOT_INT, st.integers(max_value=-1))
_BAD_CU = st.one_of(
    _NOT_INT,
    st.integers(max_value=0),
    st.integers(min_value=385),
    st.integers(min_value=1, max_value=384).filter(lambda n: n % 8),
)


_FUZZ_PROFILE = KernelProfile(
    name="k", category=KernelCategory.BALANCED, description="fuzz",
    flops=1e12, bytes_per_flop=0.5,
)
# (0, 1]: a zero of either sign used to pass as a unit-interval value.
_BAD_EFFICIENCY = st.one_of(
    _BAD_POSITIVE,
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=1.0, exclude_min=True),
)


def _batch_column(**column):
    batch = ProfileBatch.from_profiles([_FUZZ_PROFILE])
    return dataclasses.replace(
        batch, **{f: np.array([[v]]) for f, v in column.items()}
    )


def _fleet(**group_fields):
    budget = group_fields.pop("power_budget_mw", 20.0)
    group = FleetGroup("g", profiles=(_FUZZ_PROFILE,), **group_fields)
    return FleetSpec((group,), power_budget_mw=budget)


def _kernel(n_cus=256.0, freq=1e9, bandwidth=3e12, **kwargs):
    return evaluate_kernel(_FUZZ_PROFILE, n_cus, freq, bandwidth, **kwargs)


def _kernel_grid(cu=256.0, freq=1e9, bw=3e12):
    batch = ProfileBatch.from_profiles([_FUZZ_PROFILE])
    return evaluate_kernel_grid(batch, (192.0, cu), (0.8e9, freq), (bw,))


_SMALL_GRID = ThermalGrid(66.0, 22.0, nx=4, ny=2)
_NO_POWER = np.zeros(
    (_SMALL_GRID.stack.n_layers, _SMALL_GRID.ny, _SMALL_GRID.nx)
)


def _converge(tol_c=1e-9, max_steps=1):
    return TransientSolver(_SMALL_GRID).converge(
        _NO_POWER, tol_c=tol_c, max_steps=max_steps
    )


def _advance(n):
    modes = _SMALL_GRID.to_modes(_NO_POWER + 50.0)
    return _SMALL_GRID.advance(
        modes, _SMALL_GRID.steady_modes(_NO_POWER), 0.01, n
    )


# constructor field or function argument ->
#     (build from one bad value, bad-value strategy)
_BAD_FIELDS = {
    "DesignSpace.cu_counts": (
        lambda v: DesignSpace(cu_counts=(256, v)), _BAD_CU),
    "DesignSpace.frequencies": (
        lambda v: DesignSpace(frequencies=(1e9, v)), _BAD_POSITIVE),
    "DesignSpace.bandwidths": (
        lambda v: DesignSpace(bandwidths=(3e12, v)), _BAD_POSITIVE),
    "DesignSpace.power_budget": (
        lambda v: DesignSpace(power_budget=v), _BAD_POSITIVE),
    "FleetSpec.power_budget_mw": (
        lambda v: _fleet(power_budget_mw=v), _BAD_POSITIVE),
    "FleetGroup.n_nodes": (lambda v: _fleet(n_nodes=v), _BAD_COUNT),
    "FleetGroup.concurrent_kernels": (
        lambda v: _fleet(concurrent_kernels=v), _BAD_COUNT),
    "FleetGroup.config.n_cus": (
        lambda v: _fleet(config=EHPConfig(n_cus=v)), _BAD_CU),
    "LinkTierParams.n_links": (
        lambda v: LinkTierParams(n_links=v), _BAD_COUNT),
    "LinkTierParams.link_bandwidth": (
        lambda v: LinkTierParams(link_bandwidth=v), _BAD_POSITIVE),
    "LinkTierParams.downlink_fraction": (
        lambda v: LinkTierParams(downlink_fraction=v),
        st.one_of(_BAD_POSITIVE, st.floats(min_value=1.0))),
    "LinkTierParams.protocol_efficiency": (
        lambda v: LinkTierParams(protocol_efficiency=v),
        st.one_of(
            _BAD_POSITIVE, st.floats(min_value=1.0, exclude_min=True)
        )),
    "LinkTierParams.link_latency": (
        lambda v: LinkTierParams(link_latency=v), _BAD_NON_NEGATIVE),
    "LinkTierParams.hops": (
        lambda v: LinkTierParams(hops=v), _BAD_NON_NEGATIVE_COUNT),
    "LinkTierParams.arbitration_overhead": (
        lambda v: LinkTierParams(arbitration_overhead=v),
        _BAD_NON_NEGATIVE),
    "LinkTierParams.contention_kappa": (
        lambda v: LinkTierParams(contention_kappa=v), _BAD_NON_NEGATIVE),
    "LinkTierParams.contention_exponent": (
        lambda v: LinkTierParams(contention_exponent=v),
        _BAD_NON_NEGATIVE_COUNT),
    "MemoryManager.capacity_bytes": (
        lambda v: MemoryManager(v, FirstTouchPolicy()),
        st.one_of(_NON_FINITE, st.floats(max_value=4096, exclude_max=True))),
    "MemoryManager.page_size": (
        lambda v: MemoryManager(1 << 20, FirstTouchPolicy(), page_size=v),
        _BAD_COUNT),
    "HotnessMigrationPolicy.migration_limit": (
        HotnessMigrationPolicy, _BAD_NON_NEGATIVE_COUNT),
    "DvfsGovernor.cu_gate_step": (
        lambda v: DvfsGovernor(cu_gate_step=v), _BAD_COUNT),
    "DvfsGovernor.freq_ladder": (
        lambda v: DvfsGovernor(freq_ladder=(1e9, v)), _BAD_POSITIVE),
    "DramCache.capacity_bytes": (DramCache, _BAD_POSITIVE),
    "DramCache.page_bytes": (
        lambda v: DramCache(1 << 20, page_bytes=v), _BAD_COUNT),
    "DramCache.associativity": (
        lambda v: DramCache(1 << 20, associativity=v), _BAD_COUNT),
    "DramCache.addressable_capacity_loss.external_bytes": (
        lambda v: DramCache(1 << 20).addressable_capacity_loss(v),
        _BAD_POSITIVE),
    "TraceGenerator.seed": (
        lambda v: TraceGenerator(_FUZZ_PROFILE, seed=v),
        _BAD_NON_NEGATIVE_COUNT),
    "TraceGenerator.generate.n_accesses": (
        lambda v: TraceGenerator(_FUZZ_PROFILE).generate(v), _BAD_COUNT),
    "KernelProfile.issue_efficiency": (
        lambda v: _FUZZ_PROFILE.with_overrides(issue_efficiency=v),
        _BAD_EFFICIENCY),
    "ProfileBatch.issue_efficiency": (
        lambda v: _batch_column(issue_efficiency=v), _BAD_EFFICIENCY),
    "evaluate_kernel.n_cus": (lambda v: _kernel(n_cus=v), _BAD_POSITIVE),
    "evaluate_kernel.freq": (lambda v: _kernel(freq=v), _BAD_POSITIVE),
    "evaluate_kernel.bandwidth": (
        lambda v: _kernel(bandwidth=v), _BAD_POSITIVE),
    "evaluate_kernel.ext_fraction": (
        lambda v: _kernel(ext_fraction=v), _BAD_FRACTION),
    "evaluate_kernel.extra_latency": (
        lambda v: _kernel(extra_latency=v), _BAD_NON_NEGATIVE),
    "evaluate_kernel.ext_link.ext_bandwidth": (
        lambda v: _kernel(ext_link=LinkDerate(v, 1e-6)), _BAD_POSITIVE),
    "evaluate_kernel.ext_link.ext_latency": (
        lambda v: _kernel(ext_link=LinkDerate(1e11, v)), _BAD_POSITIVE),
    "evaluate_kernel_grid.cu_axis": (
        lambda v: _kernel_grid(cu=v), _BAD_POSITIVE),
    "evaluate_kernel_grid.freq_axis": (
        lambda v: _kernel_grid(freq=v), _BAD_POSITIVE),
    "evaluate_kernel_grid.bw_axis": (
        lambda v: _kernel_grid(bw=v), _BAD_POSITIVE),
    "TrafficMatrix.bytes_": (
        lambda v: TrafficMatrix(("a",), ("b", "c"), [[1.0, v]]),
        _BAD_NON_NEGATIVE),
    "gpu_dram_traffic_matrix.total_bytes": (
        lambda v: gpu_dram_traffic_matrix(EHPTopology(), v),
        _BAD_NON_NEGATIVE),
    "ApuSimConfig.n_cus": (lambda v: ApuSimConfig(n_cus=v), _BAD_COUNT),
    "ApuSimConfig.wavefronts_per_cu": (
        lambda v: ApuSimConfig(wavefronts_per_cu=v), _BAD_COUNT),
    "ApuSimConfig.line_bytes": (
        lambda v: ApuSimConfig(line_bytes=v), _BAD_COUNT),
    "ApuSimConfig.freq_hz": (
        lambda v: ApuSimConfig(freq_hz=v), _BAD_POSITIVE),
    "ApuSimConfig.flops_per_cu_cycle": (
        lambda v: ApuSimConfig(flops_per_cu_cycle=v), _BAD_POSITIVE),
    "ApuSimConfig.dram_bandwidth": (
        lambda v: ApuSimConfig(dram_bandwidth=v), _BAD_POSITIVE),
    "ApuSimConfig.dram_latency": (
        lambda v: ApuSimConfig(dram_latency=v), _BAD_POSITIVE),
    "ApuSimConfig.llc_latency": (
        lambda v: ApuSimConfig(llc_latency=v), _BAD_POSITIVE),
    "ApuSimConfig.l1_latency": (
        lambda v: ApuSimConfig(l1_latency=v), _BAD_POSITIVE),
    "ApuSimConfig.chiplet_extra_latency": (
        lambda v: ApuSimConfig(chiplet_extra_latency=v), _BAD_NON_NEGATIVE),
    "RowBufferSim.n_banks": (lambda v: RowBufferSim(n_banks=v), _BAD_COUNT),
    "RowBufferSim.row_bytes": (
        lambda v: RowBufferSim(row_bytes=v), _BAD_COUNT),
    "RowBufferSim.channel_interleave_bytes": (
        lambda v: RowBufferSim(channel_interleave_bytes=v), _BAD_COUNT),
    "NocSimulator.link_bandwidth": (
        lambda v: NocSimulator(link_bandwidth=v), _BAD_POSITIVE),
    "SimMessage.size_bytes": (
        lambda v: SimMessage("gpu0", "dram0", v, 0.0), _BAD_POSITIVE),
    "SimMessage.inject_time": (
        lambda v: SimMessage("gpu0", "dram0", 64.0, v), _BAD_NON_NEGATIVE),
    "BatcherCore.max_queue": (
        lambda v: BatcherCore(max_queue=v), _BAD_COUNT),
    "FixedPolicy.batch": (lambda v: FixedPolicy(batch=v), _BAD_COUNT),
    "FixedPolicy.est_request_s": (
        lambda v: FixedPolicy(est_request_s=v), _BAD_NON_NEGATIVE),
    "FixedPolicy.dispatch_overhead_s": (
        lambda v: FixedPolicy(dispatch_overhead_s=v), _BAD_NON_NEGATIVE),
    "AdaptiveBatchPolicy.min_batch": (
        lambda v: AdaptiveBatchPolicy(min_batch=v), _BAD_COUNT),
    "AdaptiveBatchPolicy.max_batch": (
        lambda v: AdaptiveBatchPolicy(max_batch=v), _BAD_COUNT),
    "AdaptiveBatchPolicy.target_batch_seconds": (
        lambda v: AdaptiveBatchPolicy(target_batch_seconds=v),
        _BAD_POSITIVE),
    "AdaptiveBatchPolicy.default_request_seconds": (
        lambda v: AdaptiveBatchPolicy(default_request_seconds=v),
        _BAD_POSITIVE),
    "AdaptiveBatchPolicy.dispatch_overhead_s": (
        lambda v: AdaptiveBatchPolicy(dispatch_overhead_s=v),
        _BAD_NON_NEGATIVE),
    "derate.write_fraction": (
        lambda v: derate(LinkTierParams(), v), _BAD_FRACTION),
    "derate.concurrent_kernels": (
        lambda v: derate(LinkTierParams(), 0.3, v),
        st.one_of(_NON_FINITE, st.floats(max_value=1.0, exclude_max=True))),
    "PeriodicSampler.interval_s": (
        lambda v: PeriodicSampler(os.devnull, interval_s=v), _BAD_POSITIVE),
    "ExascaleSystem.n_nodes": (ExascaleSystem, _BAD_COUNT),
    "ThermalGovernor.limit_c": (
        lambda v: ThermalGovernor(limit_c=v), _NON_FINITE),
    "ThermalGovernor.margin_c": (
        lambda v: ThermalGovernor(margin_c=v), _BAD_NON_NEGATIVE),
    "ThermalGovernor.feedback_margin_c": (
        lambda v: ThermalGovernor(feedback_margin_c=v), _BAD_NON_NEGATIVE),
    "ThermalGovernor.control_interval_s": (
        lambda v: ThermalGovernor(control_interval_s=v), _BAD_POSITIVE),
    "MemoryModule.capacity": (
        lambda v: MemoryModule("m", "dram", v), _BAD_POSITIVE),
    "CacheLevel.capacity_bytes": (
        lambda v: CacheLevel("c", v), _BAD_POSITIVE),
    "CacheLevel.line_bytes": (
        lambda v: CacheLevel("c", 1 << 20, line_bytes=v), _BAD_COUNT),
    "CacheLevel.associativity": (
        lambda v: CacheLevel("c", 1 << 20, associativity=v), _BAD_COUNT),
    "synthetic_arrivals.rate_hz": (
        lambda v: synthetic_arrivals(0, 1, rate_hz=v), _BAD_POSITIVE),
    "TransientSolver.converge.tol_c": (_converge, _BAD_NON_NEGATIVE),
    "TransientSolver.converge.max_steps": (
        lambda v: _converge(max_steps=v), _BAD_COUNT),
    "TransientSolver.run_many.n_steps": (
        lambda v: TransientSolver(_SMALL_GRID).run_many(_NO_POWER[None], v),
        _BAD_COUNT),
    "ThermalGrid.advance.n": (_advance, _BAD_COUNT),
    "ThermalPhase.duration_s": (
        lambda v: ThermalPhase(_FUZZ_PROFILE, v), _BAD_POSITIVE),
    "PowerPhase.duration_s": (
        lambda v: PowerPhase(_NO_POWER, v), _BAD_POSITIVE),
    "EHPFloorplan.width_mm": (
        lambda v: EHPFloorplan(width_mm=v), _BAD_POSITIVE),
    "EHPFloorplan.depth_mm": (
        lambda v: EHPFloorplan(depth_mm=v), _BAD_POSITIVE),
    **{
        f"Region.{corner}": (
            lambda v, i=i: Region(
                "r", "gpu", *(v if j == i else c
                              for j, c in enumerate((0.0, 0.0, 1.0, 1.0)))
            ),
            _NON_FINITE,
        )
        for i, corner in enumerate(("x0", "y0", "x1", "y1"))
    },
}

# Parameter records and memory-system constructors built from keywords
# alone: every numeric field rejects NaN and inf on top of its sign or
# range check, and every count rejects anything but a positive integer.
_PARAM_FIELDS = {
    MachineParams: {
        **dict.fromkeys(
            ("flops_per_cu_cycle", "cacheline_bytes", "mem_latency",
             "ext_latency", "ext_bandwidth", "overlap_sharpness",
             "reference_cus", "reference_freq"), _BAD_POSITIVE),
        **dict.fromkeys(
            ("contention_kappa", "contention_exponent"), _BAD_NON_NEGATIVE),
        "remote_fraction_uniform": _BAD_FRACTION,
        **dict.fromkeys(
            ("thrash_exponent", "chiplet_extra_latency"), _NON_FINITE),
    },
    PowerParams: {
        **dict.fromkeys(
            ("cu_ceff_farad", "cu_leakage_watt", "noc_energy_per_bit",
             "dram3d_energy_per_bit", "ext_dram_energy_per_bit",
             "nvm_read_energy_per_bit", "nvm_write_energy_per_bit",
             "serdes_energy_per_bit", "n_dram3d_stacks"), _BAD_POSITIVE),
        **dict.fromkeys(
            ("cu_idle_activity", "noc_router_fraction",
             "async_cu_dynamic_scale", "async_router_dynamic_scale",
             "link_dynamic_scale"), _BAD_FRACTION),
        **dict.fromkeys(
            ("cpu_cluster_watt", "noc_static_watt",
             "dram3d_static_per_stack_watt",
             "dram3d_interface_watt_per_tbps",
             "ext_dram_static_per_module_watt",
             "nvm_static_per_module_watt", "serdes_static_per_link_watt"),
            _NON_FINITE),
    },
    VFCurve: {
        **dict.fromkeys(("v_ref", "f_ref", "v_floor"), _BAD_POSITIVE),
        "voltage_scale": st.one_of(
            _NON_FINITE,
            st.floats(max_value=0.5, exclude_max=True),
            st.floats(min_value=1.5, exclude_min=True),
        ),
        "slope_per_ghz": _BAD_NON_NEGATIVE,
    },
    HBMTimings: {
        **dict.fromkeys(
            ("row_hit_latency", "row_miss_latency", "refresh_interval"),
            _BAD_POSITIVE),
        "n_banks": _BAD_COUNT,
    },
    HBMStack: {
        **dict.fromkeys(("capacity", "bandwidth"), _BAD_POSITIVE),
        "n_dies": _BAD_COUNT,
    },
    NVMParams: {
        **dict.fromkeys(
            ("read_latency", "write_latency", "read_energy_per_bit",
             "write_energy_per_bit", "endurance_writes"), _BAD_POSITIVE),
        "static_power_watt": _BAD_NON_NEGATIVE,
    },
    NVMModule: {"capacity": _BAD_POSITIVE},
    ExternalMemoryNetwork: {
        "n_interfaces": _BAD_COUNT,
        **dict.fromkeys(("link_bandwidth", "link_latency"), _BAD_POSITIVE),
    },
    AddressInterleaver: {
        "n_channels": _BAD_COUNT,
        "granularity": st.one_of(
            _BAD_COUNT,
            st.integers(min_value=3).filter(lambda n: n & (n - 1)),
        ),
    },
}
for _cls, _fields in _PARAM_FIELDS.items():
    for _name, _bad in _fields.items():
        _BAD_FIELDS[f"{_cls.__name__}.{_name}"] = (
            lambda v, cls=_cls, name=_name: cls(**{name: v}), _bad
        )

# One value per field that used to be accepted (or to raise something
# other than a ValueError naming the field); the error must name it.
_NAMED_BAD_VALUES = [
    ("derate.write_fraction", math.nan),
    ("derate.concurrent_kernels", math.nan),
    ("derate.concurrent_kernels", math.inf),
    ("PeriodicSampler.interval_s", math.nan),
    ("PeriodicSampler.interval_s", math.inf),
    ("ExascaleSystem.n_nodes", math.nan),
    ("ExascaleSystem.n_nodes", 2.5),
    ("ExascaleSystem.n_nodes", True),
    ("ThermalGovernor.limit_c", math.nan),
    ("ThermalGovernor.margin_c", math.nan),
    ("ThermalGovernor.feedback_margin_c", math.inf),
    ("ThermalGovernor.control_interval_s", math.inf),
    ("ThermalGovernor.control_interval_s", math.nan),
    ("synthetic_arrivals.rate_hz", math.nan),
    ("TransientSolver.converge.tol_c", math.nan),
    ("TransientSolver.converge.max_steps", math.nan),
    ("TransientSolver.converge.max_steps", 0),
    ("TransientSolver.converge.max_steps", -1),
    ("TransientSolver.converge.max_steps", 2.5),
    ("TransientSolver.run_many.n_steps", 2.5),
    ("TransientSolver.run_many.n_steps", math.nan),
    ("TransientSolver.run_many.n_steps", True),
    ("ThermalGrid.advance.n", 2.5),
    ("ThermalPhase.duration_s", math.inf),
    ("KernelProfile.issue_efficiency", 0.0),
    ("KernelProfile.issue_efficiency", -0.0),
    ("ProfileBatch.issue_efficiency", 0.0),
    ("ProfileBatch.issue_efficiency", -0.0),
    ("DramCache.addressable_capacity_loss.external_bytes", math.nan),
    ("DramCache.addressable_capacity_loss.external_bytes", math.inf),
    ("TraceGenerator.seed", 1.5),
    ("TraceGenerator.seed", math.nan),
    ("TraceGenerator.seed", True),
    ("TraceGenerator.generate.n_accesses", 2.5),
    ("TraceGenerator.generate.n_accesses", math.nan),
    ("TraceGenerator.generate.n_accesses", math.inf),
    ("TraceGenerator.generate.n_accesses", 3.0),
    ("TraceGenerator.generate.n_accesses", True),
    # Each parameter-record field at NaN, which most of them accepted.
    *(
        (f"{cls.__name__}.{name}", math.nan)
        for cls, fields in _PARAM_FIELDS.items()
        for name in fields
    ),
    ("MachineParams.mem_latency", math.inf),
    ("PowerParams.cu_ceff_farad", math.inf),
    ("VFCurve.f_ref", math.inf),
    ("HBMTimings.refresh_interval", -math.inf),
    ("HBMTimings.n_banks", 2.5),
    ("HBMStack.n_dies", True),
    ("ExternalMemoryNetwork.n_interfaces", 2.5),
    ("AddressInterleaver.n_channels", math.inf),
    ("AddressInterleaver.granularity", 4096.0),
    ("MemoryModule.capacity", math.nan),
    ("CacheLevel.capacity_bytes", math.nan),
    ("CacheLevel.line_bytes", 2.5),
    ("CacheLevel.associativity", True),
    ("evaluate_kernel.ext_link.ext_bandwidth", math.nan),
    ("evaluate_kernel.ext_link.ext_latency", math.nan),
    ("evaluate_kernel.ext_link.ext_latency", -math.inf),
    ("EHPFloorplan.width_mm", math.nan),
    ("EHPFloorplan.width_mm", math.inf),
    ("EHPFloorplan.depth_mm", math.nan),
    *((f"Region.{corner}", math.nan) for corner in ("x0", "y0", "x1", "y1")),
    ("Region.x1", math.inf),
]


class TestConstructorValidation:
    @given(st.data(), st.sampled_from(sorted(_BAD_FIELDS)))
    @settings(max_examples=300, deadline=None)
    def test_bad_field_raises_value_error(self, data, field):
        build, bad_values = _BAD_FIELDS[field]
        value = data.draw(bad_values, label=field)
        with pytest.raises(ValueError):
            build(value)

    @pytest.mark.parametrize(
        "field, value", _NAMED_BAD_VALUES,
        ids=[f"{f}={v}" for f, v in _NAMED_BAD_VALUES],
    )
    def test_error_names_the_field(self, field, value):
        build, _ = _BAD_FIELDS[field]
        with pytest.raises(ValueError, match=field.rsplit(".", 1)[1]):
            build(value)
