"""The cross-cutting performance layer: cached thermal factorization,
vectorized assembly, the shared evaluation cache, the parallel
experiment runner, and the NoC fast path."""

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from repro.core.dse import explore
from repro.core.node import NodeModel
from repro.noc.simulator import NocSimulator, SimMessage
from repro.perf.evalcache import (
    EvalCache,
    SimCache,
    evaluate_arrays_cached,
    fingerprint_sim_config,
    fingerprint_trace,
    simulate_trace_cached,
)
from repro.perf.parallel import (
    parallel_explore,
    run_all_experiments,
    run_experiments,
)
from repro.perf.pool import ShardedPool
from repro.power.components import PowerParams
from repro.sim.apu_sim import ApuSimConfig, ApuSimulator
from repro.thermal.grid import ThermalGrid
from repro.workloads.catalog import get_application
from repro.workloads.traces import TraceGenerator


class TestVectorizedAssembly:
    @pytest.mark.parametrize("nx,ny", [(4, 3), (9, 5), (22, 8)])
    def test_matches_reference_exactly(self, nx, ny):
        grid = ThermalGrid(10.0, 6.0, nx=nx, ny=ny)
        fast, b_fast = grid._assemble()
        ref, b_ref = grid._assemble_reference()
        fast.sort_indices()
        ref.sort_indices()
        assert np.array_equal(fast.indptr, ref.indptr)
        assert np.array_equal(fast.indices, ref.indices)
        # Diagonal accumulation replays the reference loop's addition
        # order, so the match is bit-exact, not merely approximate.
        assert np.array_equal(fast.data, ref.data)
        assert np.array_equal(b_fast, b_ref)


class TestCachedThermalSolve:
    @pytest.fixture(scope="class")
    def grid(self):
        return ThermalGrid(66.0, 22.0, nx=33, ny=11)

    def test_matches_spsolve(self, grid):
        rng = np.random.default_rng(7)
        maps = rng.random((3, grid.ny, grid.nx))
        field = grid.solve(maps)
        matrix, b_amb = grid._assemble_reference()
        ref = spsolve(matrix, maps.ravel() + b_amb * grid.stack.ambient_c)
        assert np.abs(field.celsius.ravel() - ref).max() < 1e-9

    def test_factorization_reused(self, grid):
        maps = np.zeros((3, grid.ny, grid.nx))
        maps[1, 4, 10] = 5.0
        grid.solve(maps)
        assert grid.factorization_cached
        factor = grid._factor
        grid.solve(maps * 2)
        assert grid._factor is factor
        grid.invalidate()
        assert not grid.factorization_cached

    def test_solve_many_matches_sequential(self, grid):
        rng = np.random.default_rng(11)
        batch = rng.random((5, 3, grid.ny, grid.nx))
        fields = grid.solve_many(batch)
        assert len(fields) == 5
        for k, field in enumerate(fields):
            single = grid.solve(batch[k])
            assert np.abs(field.celsius - single.celsius).max() < 1e-9

    def test_solve_many_validates(self, grid):
        with pytest.raises(ValueError):
            grid.solve_many(np.zeros((3, grid.ny, grid.nx)))
        with pytest.raises(ValueError):
            grid.solve(np.zeros((2, 3, grid.ny, grid.nx)))
        assert grid.solve_many(np.zeros((0, 3, grid.ny, grid.nx))) == []


class TestEvalCache:
    def test_hit_miss_counters(self):
        cache = EvalCache()
        model = NodeModel()
        profile = get_application("CoMD")
        cus = np.array([256.0, 320.0])
        ev1 = cache.evaluate_arrays(model, profile, cus, 1.0e9, 3.0e12)
        assert cache.stats().misses == 1 and cache.stats().hits == 0
        ev2 = cache.evaluate_arrays(model, profile, cus, 1.0e9, 3.0e12)
        assert cache.stats().hits == 1
        assert ev2 is ev1  # the memoized object itself
        # A fresh-but-equal model still hits: keys are value fingerprints.
        ev3 = cache.evaluate_arrays(NodeModel(), profile, cus, 1.0e9, 3.0e12)
        assert ev3 is ev1
        assert cache.stats().hits == 2

    def test_model_fingerprint_differentiates(self):
        cache = EvalCache()
        profile = get_application("CoMD")
        cus = np.array([256.0])
        cache.evaluate_arrays(NodeModel(), profile, cus, 1.0e9, 3.0e12)
        tweaked = NodeModel(
            power_params=PowerParams(cu_leakage_watt=0.05)
        )
        cache.evaluate_arrays(tweaked, profile, cus, 1.0e9, 3.0e12)
        assert cache.stats().misses == 2

    def test_profile_and_axis_fingerprints(self):
        cache = EvalCache()
        model = NodeModel()
        profile = get_application("CoMD")
        cache.evaluate_arrays(model, profile, 320.0, 1.0e9, 3.0e12)
        cache.evaluate_arrays(
            model, profile.with_overrides(cu_utilization=0.5),
            320.0, 1.0e9, 3.0e12,
        )
        cache.evaluate_arrays(model, profile, 320.0, 1.1e9, 3.0e12)
        cache.evaluate_arrays(
            model, profile, 320.0, 1.0e9, 3.0e12, ext_fraction=0.5
        )
        assert cache.stats().misses == 4
        assert cache.stats().hits == 0

    def test_invalidation(self):
        cache = EvalCache()
        model = NodeModel()
        comd = get_application("CoMD")
        snap = get_application("SNAP")
        cache.evaluate_arrays(model, comd, 320.0, 1.0e9, 3.0e12)
        cache.evaluate_arrays(model, snap, 320.0, 1.0e9, 3.0e12)
        assert cache.invalidate(profile=comd) == 1
        assert cache.stats().entries == 1
        # CoMD misses again, SNAP still hits.
        cache.evaluate_arrays(model, comd, 320.0, 1.0e9, 3.0e12)
        cache.evaluate_arrays(model, snap, 320.0, 1.0e9, 3.0e12)
        assert cache.stats().misses == 3
        assert cache.stats().hits == 1
        assert cache.invalidate() == 2
        assert cache.stats().entries == 0

    def test_lru_bound(self):
        cache = EvalCache(maxsize=1)
        model = NodeModel()
        profile = get_application("CoMD")
        cache.evaluate_arrays(model, profile, 320.0, 1.0e9, 3.0e12)
        cache.evaluate_arrays(model, profile, 256.0, 1.0e9, 3.0e12)
        stats = cache.stats()
        assert stats.entries == 1 and stats.evictions == 1

    def test_explore_uses_cache(self):
        # The default tensor engine memoizes one whole-grid entry per
        # (batch, model, space); repeat explores are pure lookups.
        cache = EvalCache()
        profiles = [get_application("CoMD"), get_application("SNAP")]
        r1 = explore(profiles, cache=cache)
        assert cache.stats().misses == 1
        r2 = explore(profiles, cache=cache)
        assert cache.stats().hits == 1
        assert r1.best_mean_index == r2.best_mean_index
        for name in r1.performance:
            assert np.array_equal(r1.performance[name], r2.performance[name])
        # Bypass leaves the counters untouched and agrees numerically.
        r3 = explore(profiles, cache=False)
        assert cache.stats().requests == 2
        assert r3.best_mean_index == r1.best_mean_index
        # The point engine keeps the per-profile entries.
        r4 = explore(profiles, cache=cache, engine="point")
        assert cache.stats().misses == 1 + len(profiles)
        assert r4.best_mean_index == r1.best_mean_index

    def test_cached_helper_matches_direct(self):
        model = NodeModel()
        profile = get_application("LULESH")
        cus = np.array([192.0, 384.0])
        direct = model.evaluate_arrays(profile, cus, 1.0e9, 3.0e12)
        cached = evaluate_arrays_cached(
            model, profile, cus, 1.0e9, 3.0e12, cache=EvalCache()
        )
        assert np.array_equal(
            np.asarray(direct.performance), np.asarray(cached.performance)
        )
        assert np.array_equal(
            np.asarray(direct.node_power), np.asarray(cached.node_power)
        )


class TestSimCache:
    def _trace(self, seed=42, n=1500):
        return TraceGenerator(get_application("CoMD"), seed=seed).generate(n)

    def test_hit_returns_memoized_result(self):
        cache = SimCache()
        trace = self._trace()
        r1 = cache.run(trace)
        r2 = cache.run(trace)
        assert r2 is r1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_engines_cached_independently(self):
        cache = SimCache()
        trace = self._trace()
        array = cache.run(trace, engine="array")
        event = cache.run(trace, engine="event")
        assert array is not event
        assert cache.stats().misses == 2
        # Same (config, trace) through each engine again: both hit.
        assert cache.run(trace, engine="array") is array
        assert cache.run(trace, engine="event") is event
        assert cache.stats().hits == 2

    def test_config_fingerprint_differentiates(self):
        cache = SimCache()
        trace = self._trace()
        cache.run(trace, ApuSimConfig(n_cus=4))
        cache.run(trace, ApuSimConfig(n_cus=8))
        assert cache.stats().misses == 2

    def test_trace_fingerprint_differentiates(self):
        cache = SimCache()
        cache.run(self._trace(seed=1))
        cache.run(self._trace(seed=2))
        assert cache.stats().misses == 2
        # An equal-valued regenerated trace hits: keys are value digests.
        cache.run(self._trace(seed=1))
        assert cache.stats().hits == 1

    def test_fingerprint_functions_are_value_digests(self):
        assert fingerprint_trace(self._trace()) == fingerprint_trace(
            self._trace()
        )
        assert fingerprint_sim_config(ApuSimConfig()) == (
            fingerprint_sim_config(ApuSimConfig())
        )
        assert fingerprint_sim_config(ApuSimConfig()) != (
            fingerprint_sim_config(ApuSimConfig(n_cus=4))
        )

    def test_cached_helper_matches_direct(self):
        trace = self._trace()
        config = ApuSimConfig(n_cus=4)
        direct = ApuSimulator(config).run(trace)
        cached = simulate_trace_cached(trace, config, cache=SimCache())
        assert cached == direct

    def test_lru_bound(self):
        cache = SimCache(maxsize=1)
        cache.run(self._trace(seed=1, n=200))
        cache.run(self._trace(seed=2, n=200))
        stats = cache.stats()
        assert stats.entries == 1 and stats.evictions == 1


class TestParallelRunner:
    SUBSET = ["table1", "fig7", "dse"]

    def test_serial_and_parallel_identical(self):
        serial = run_experiments(self.SUBSET)
        with ShardedPool(2) as pool:
            parallel = run_experiments(self.SUBSET, pool=pool)
        assert list(serial) == list(parallel) == self.SUBSET
        for name in self.SUBSET:
            assert serial[name].rendered == parallel[name].rendered
            assert serial[name].data == parallel[name].data

    def test_order_is_canonical_not_request_order(self):
        results = run_experiments(["fig7", "table1"])
        assert list(results) == ["table1", "fig7"]

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            run_experiments(["nope"])

    def test_run_all_covers_registry(self):
        from repro.experiments.registry import EXPERIMENTS

        results = run_all_experiments()
        assert list(results) == list(EXPERIMENTS)

    def test_parallel_explore_identical_to_serial(self):
        # In-process slab tasks (no pool) reproduce the serial sweep.
        profiles = [get_application("CoMD"), get_application("MaxFlops")]
        serial = explore(profiles, cache=False)
        chunked = parallel_explore(profiles, n_chunks=5, pool=None)
        assert chunked.best_mean_index == serial.best_mean_index
        assert chunked.per_app_best_index == serial.per_app_best_index
        for name in serial.performance:
            assert np.array_equal(
                serial.performance[name], chunked.performance[name]
            )
            assert np.array_equal(
                serial.node_power[name], chunked.node_power[name]
            )


class TestNocFastPath:
    def _messages(self):
        rng = np.random.default_rng(3)
        nodes = [f"gpu{i}" for i in range(8)] + [f"dram{i}" for i in range(8)]
        pairs = [
            (nodes[a], nodes[b])
            for a, b in rng.integers(0, len(nodes), size=(300, 2))
            if a != b
        ]
        return [
            SimMessage(s, d, 4096.0, (k // 3) * 1e-8)
            for k, (s, d) in enumerate(pairs)
        ]

    def test_run_batch_matches_run(self):
        msgs = self._messages()
        res_obj = NocSimulator().run(msgs)
        res_batch = NocSimulator().run_batch(
            [m.src for m in msgs],
            [m.dst for m in msgs],
            [m.size_bytes for m in msgs],
            [m.inject_time for m in msgs],
        )
        assert res_batch.latencies == res_obj.latencies
        assert res_batch.makespan == res_obj.makespan
        assert res_batch.total_bytes == res_obj.total_bytes

    def test_run_batch_broadcasts_scalars(self):
        res = NocSimulator().run_batch(
            ["gpu0", "gpu1"], ["dram5", "dram6"], 4096.0, 0.0
        )
        assert res.delivered == 2

    def test_run_batch_validates(self):
        sim = NocSimulator()
        with pytest.raises(ValueError):
            sim.run_batch(["gpu0"], ["dram0"], 0.0, 0.0)
        with pytest.raises(ValueError):
            sim.run_batch(["gpu0"], ["dram0"], 64.0, -1.0)
        with pytest.raises(ValueError):
            sim.run_batch(["gpu0"], [], 64.0, 0.0)

    def test_link_stats_live_on_result(self):
        msgs = self._messages()
        res = NocSimulator().run(msgs)
        assert res.link_stats
        total_msgs = sum(s.messages for s in res.link_stats.values())
        assert total_msgs >= len(msgs)  # every message crosses >=1 link
        util = res.link_utilization()
        assert util and all(0.0 <= u <= 1.0 for u in util.values())

    def test_links_attribute_removed(self):
        sim = NocSimulator()
        res = sim.run(self._messages())
        assert res.link_stats
        with pytest.raises(AttributeError):
            sim.links

    def test_simulator_utilization_requires_run(self):
        sim = NocSimulator()
        with pytest.raises(RuntimeError):
            sim.link_utilization(1.0)
        res = sim.run(self._messages())
        assert sim.link_utilization(res.makespan) == res.link_utilization()


class TestGeometricMeanAcross:
    def test_guards(self):
        from repro.util.stats import geometric_mean_across

        with pytest.raises(ValueError):
            geometric_mean_across(np.array([]))
        with pytest.raises(ValueError):
            geometric_mean_across(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            geometric_mean_across(np.array([[1.0, -2.0]]))
        out = geometric_mean_across(np.array([[2.0, 8.0], [8.0, 2.0]]))
        assert out == pytest.approx([4.0, 4.0])


class TestMemsysCache:
    """The (geometry, address-stream, engine)-keyed memsys memo."""

    def _stream(self, n=2000, seed=4):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 1 << 22, size=n), rng.random(n) < 0.3

    def test_dram_stats_memoized(self):
        from repro.perf.evalcache import MemsysCache

        cache = MemsysCache()
        addrs, writes = self._stream()
        s1 = cache.dram_stats(addrs, writes, capacity_bytes=1 << 20)
        s2 = cache.dram_stats(addrs, writes, capacity_bytes=1 << 20)
        assert s2 is s1
        assert cache.stats().hits == 1 and cache.stats().misses == 1

    def test_engines_cached_independently_and_agree(self):
        from dataclasses import astuple

        from repro.perf.evalcache import MemsysCache

        cache = MemsysCache()
        addrs, writes = self._stream()
        sa = cache.dram_stats(addrs, writes, capacity_bytes=1 << 20)
        se = cache.dram_stats(
            addrs, writes, capacity_bytes=1 << 20, engine="event"
        )
        assert se is not sa
        assert astuple(se) == astuple(sa)

    def test_geometry_differentiates(self):
        from repro.perf.evalcache import MemsysCache

        cache = MemsysCache()
        addrs, writes = self._stream()
        cache.dram_stats(addrs, writes, capacity_bytes=1 << 20)
        cache.dram_stats(addrs, writes, capacity_bytes=2 << 20)
        cache.rowbuffer_stats(addrs)
        cache.rowbuffer_stats(addrs, n_banks=64)
        assert cache.stats().misses == 4 and cache.stats().hits == 0

    def test_manager_fractions_memoized_per_policy(self):
        from repro.perf.evalcache import MemsysCache

        cache = MemsysCache()
        addrs, _ = self._stream()
        f1 = cache.manager_fractions(
            addrs, n_epochs=3, capacity_bytes=64 * 4096
        )
        f2 = cache.manager_fractions(
            addrs, n_epochs=3, capacity_bytes=64 * 4096
        )
        ft = cache.manager_fractions(
            addrs, n_epochs=3, capacity_bytes=64 * 4096, policy="first-touch"
        )
        assert f2 is f1 and len(f1) == 3
        assert ft != f1 or cache.stats().misses == 2
        with pytest.raises(ValueError):
            cache.manager_fractions(addrs, policy="nope")
        with pytest.raises(ValueError):
            cache.manager_fractions(addrs, n_epochs=0)

    def test_fingerprint_addresses_is_value_digest(self):
        from repro.perf.evalcache import fingerprint_addresses

        a = np.arange(10, dtype=np.int64)
        assert fingerprint_addresses(a) == fingerprint_addresses(a.copy())
        assert fingerprint_addresses(a) != fingerprint_addresses(a + 1)
        w = np.zeros(10, dtype=bool)
        assert fingerprint_addresses(a, w) != fingerprint_addresses(a)

    def test_default_cache_singleton(self):
        from repro.perf.evalcache import default_memsys_cache

        assert default_memsys_cache() is default_memsys_cache()


class TestOnDiskSpill:
    """Opt-in spill_dir: cross-run warm starts with versioned pickles."""

    def _stream(self, n=1500, seed=9):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 1 << 20, size=n), rng.random(n) < 0.5

    def test_cross_instance_warm_start(self, tmp_path):
        from dataclasses import astuple

        from repro.perf.evalcache import MemsysCache

        addrs, writes = self._stream()
        first = MemsysCache(spill_dir=tmp_path)
        r1 = first.dram_stats(addrs, writes, capacity_bytes=1 << 19)
        assert first.stats().misses == 1

        second = MemsysCache(spill_dir=tmp_path)
        r2 = second.dram_stats(addrs, writes, capacity_bytes=1 << 19)
        st = second.stats()
        assert st.spill_hits == 1 and st.misses == 0
        assert astuple(r2) == astuple(r1)
        # Spill hits count toward the hit rate.
        assert st.hit_rate == 1.0
        # Once loaded, the entry lives in memory: no second disk probe.
        second.dram_stats(addrs, writes, capacity_bytes=1 << 19)
        assert second.stats().hits == 1

    def test_simcache_spill(self, tmp_path):
        from repro.perf.evalcache import SimCache

        profile = get_application("CoMD")
        trace = TraceGenerator(profile, seed=3).generate(2000)
        a = SimCache(spill_dir=tmp_path)
        r1 = a.run(trace)
        b = SimCache(spill_dir=tmp_path)
        r2 = b.run(trace)
        assert b.stats().spill_hits == 1
        assert r2.elapsed == pytest.approx(r1.elapsed, rel=1e-12)

    def test_corrupt_entry_is_clean_miss(self, tmp_path):
        from repro.perf.evalcache import MemsysCache

        addrs, writes = self._stream()
        a = MemsysCache(spill_dir=tmp_path)
        a.dram_stats(addrs, writes, capacity_bytes=1 << 19)
        for path in tmp_path.iterdir():
            path.write_bytes(b"\x80\x04 this is not a pickle")
        b = MemsysCache(spill_dir=tmp_path)
        b.dram_stats(addrs, writes, capacity_bytes=1 << 19)
        st = b.stats()
        assert st.misses == 1 and st.spill_hits == 0
        # The recompute overwrote the corrupt file with a good one.
        c = MemsysCache(spill_dir=tmp_path)
        c.dram_stats(addrs, writes, capacity_bytes=1 << 19)
        assert c.stats().spill_hits == 1

    def test_version_mismatch_is_clean_miss(self, tmp_path, monkeypatch):
        import repro.perf.evalcache as evalcache

        addrs, writes = self._stream()
        a = evalcache.MemsysCache(spill_dir=tmp_path)
        a.dram_stats(addrs, writes, capacity_bytes=1 << 19)
        monkeypatch.setattr(evalcache, "SPILL_VERSION", 2)
        b = evalcache.MemsysCache(spill_dir=tmp_path)
        b.dram_stats(addrs, writes, capacity_bytes=1 << 19)
        st = b.stats()
        assert st.misses == 1 and st.spill_hits == 0

    def test_key_mismatch_is_clean_miss(self, tmp_path):
        """A digest collision (forged here by renaming a spill file onto
        the path another key probes) must be rejected by the embedded
        full key."""
        import os

        from repro.perf.evalcache import MemsysCache, fingerprint_addresses

        addrs, writes = self._stream()
        a = MemsysCache(spill_dir=tmp_path)
        a.dram_stats(addrs, writes, capacity_bytes=1 << 19)
        (old,) = list(tmp_path.iterdir())
        # Move the 1<<19 entry onto the exact path the 1<<20 lookup
        # will probe; its payload still embeds the 1<<19 key.
        probe_key = (
            "dram",
            float(1 << 20),
            4096,
            8,
            fingerprint_addresses(addrs, writes),
            "array",
        )
        os.replace(old, a._spill_path(probe_key))
        b = MemsysCache(spill_dir=tmp_path)
        b.dram_stats(addrs, writes, capacity_bytes=1 << 20)
        st = b.stats()
        assert st.spill_hits == 0 and st.misses == 1

    def test_spill_survives_clear(self, tmp_path):
        from repro.perf.evalcache import MemsysCache

        addrs, writes = self._stream()
        cache = MemsysCache(spill_dir=tmp_path)
        cache.dram_stats(addrs, writes, capacity_bytes=1 << 19)
        cache.clear()
        assert cache.stats().entries == 0
        cache.dram_stats(addrs, writes, capacity_bytes=1 << 19)
        assert cache.stats().spill_hits == 1

    def test_spill_disabled_writes_nothing(self, tmp_path):
        from repro.perf.evalcache import EvalCache

        cache = EvalCache()
        assert cache.spill_dir is None
        model = NodeModel()
        profile = get_application("CoMD")
        cache.evaluate_arrays(
            model, profile, np.array([256.0]), 1.0e9, 3.0e12
        )
        assert list(tmp_path.iterdir()) == []
