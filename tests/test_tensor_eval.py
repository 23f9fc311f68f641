"""The fused whole-grid tensor evaluation (PR 6).

Covers the ``ProfileBatch`` struct-of-arrays, the equivalence contract
between ``NodeModel.evaluate_grid`` and the per-profile
``evaluate_arrays`` oracle loop (rtol 1e-12, exactly agreeing
feasibility/NaN masks, bit-identical DSE argmax selections), engine
selection on ``core.dse.explore``, the whole-slab evaluation cache, and
the tensor-slab ``parallel_explore`` fan-out.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DesignSpace
from repro.core.dse import (
    ENGINES,
    default_engine,
    explore,
    set_default_engine,
)
from repro.core.node import NodeModel
from repro.perf.evalcache import (
    EvalCache,
    evaluate_grid_cached,
    fingerprint_batch,
)
from repro.perf.parallel import parallel_explore
from repro.workloads.catalog import application_names, get_application
from repro.workloads.kernels import (
    KernelCategory,
    KernelProfile,
    ProfileBatch,
)


def _profile(name="h", **overrides) -> KernelProfile:
    base = KernelProfile(
        name=name,
        category=KernelCategory.BALANCED,
        description="tensor-eval test",
        flops=1e12,
        bytes_per_flop=0.5,
        parallel_fraction=0.9,
        cache_hit_rate=0.5,
        thrash_pressure=0.3,
        latency_sensitivity=0.1,
        mlp_per_cu=32.0,
        cu_utilization=0.8,
    )
    return base.with_overrides(**overrides) if overrides else base


def _draw_profile(draw, idx: int) -> KernelProfile:
    return _profile(
        name=f"h{idx}",
        flops=draw(st.floats(min_value=1e9, max_value=1e15)),
        bytes_per_flop=draw(st.floats(min_value=0.001, max_value=2.5)),
        parallel_fraction=draw(st.floats(min_value=0.3, max_value=1.0)),
        cache_hit_rate=draw(st.floats(min_value=0.05, max_value=0.9)),
        thrash_pressure=draw(st.floats(min_value=0.0, max_value=1.5)),
        latency_sensitivity=draw(st.floats(min_value=0.005, max_value=0.9)),
        mlp_per_cu=draw(st.floats(min_value=4.0, max_value=96.0)),
        cu_utilization=draw(st.floats(min_value=0.2, max_value=0.98)),
        issue_efficiency=draw(st.floats(min_value=0.3, max_value=1.0)),
        write_fraction=draw(st.floats(min_value=0.0, max_value=0.9)),
        compression_ratio=draw(st.floats(min_value=1.0, max_value=4.0)),
    )


def _draw_space(draw) -> DesignSpace:
    cu_counts = tuple(
        sorted(
            draw(
                st.sets(
                    st.integers(min_value=1, max_value=384),
                    min_size=1,
                    max_size=5,
                )
            )
        )
    )
    frequencies = tuple(
        draw(
            st.lists(
                st.floats(min_value=0.5e9, max_value=2.0e9),
                min_size=1,
                max_size=4,
            )
        )
    )
    bandwidths = tuple(
        draw(
            st.lists(
                st.floats(min_value=0.5e12, max_value=8e12),
                min_size=1,
                max_size=3,
            )
        )
    )
    return DesignSpace(
        cu_counts=cu_counts, frequencies=frequencies, bandwidths=bandwidths
    )


class TestProfileBatch:
    def test_from_profiles_stacks_columns(self):
        apps = [get_application(n) for n in application_names()]
        batch = ProfileBatch.from_profiles(apps)
        assert len(batch) == len(apps)
        assert batch.names == tuple(a.name for a in apps)
        for field in ProfileBatch.field_names():
            col = getattr(batch, field)
            assert col.shape == (len(apps), 1)
            for i, app in enumerate(apps):
                assert col[i, 0] == float(getattr(app, field))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProfileBatch.from_profiles([])

    def test_validation_mirrors_profile_validation(self):
        good = ProfileBatch.from_profiles([_profile()])
        with pytest.raises(ValueError):
            dataclasses.replace(
                good, cache_hit_rate=np.array([[1.5]])
            )
        with pytest.raises(ValueError):
            dataclasses.replace(good, flops=np.array([[-1.0]]))
        with pytest.raises(ValueError):
            dataclasses.replace(good, compression_ratio=np.array([[0.5]]))

    def test_slicing_returns_sub_batch(self):
        apps = [get_application(n) for n in application_names()]
        batch = ProfileBatch.from_profiles(apps)
        sub = batch[2:5]
        assert isinstance(sub, ProfileBatch)
        assert sub.names == batch.names[2:5]
        assert np.array_equal(sub.flops, batch.flops[2:5])
        one = batch[3]
        assert one.names == (batch.names[3],)
        with pytest.raises(IndexError):
            batch[len(batch) : len(batch)]

    def test_fingerprint_distinguishes_batches(self):
        apps = [get_application(n) for n in application_names()]
        batch = ProfileBatch.from_profiles(apps)
        assert fingerprint_batch(batch) == fingerprint_batch(
            ProfileBatch.from_profiles(apps)
        )
        assert fingerprint_batch(batch[0:4]) != fingerprint_batch(batch[4:8])


class TestGridEquivalence:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_per_profile_loop(self, data):
        n_profiles = data.draw(st.integers(min_value=1, max_value=4))
        profiles = [_draw_profile(data.draw, i) for i in range(n_profiles)]
        space = _draw_space(data.draw)
        model = NodeModel()

        grid = model.evaluate_grid(profiles, space)
        cus, freqs, bws = space.grid_arrays()
        for i, profile in enumerate(profiles):
            ev = model.evaluate_arrays(profile, cus, freqs, bws)
            perf = np.asarray(ev.performance, dtype=float)
            power = np.asarray(ev.node_power, dtype=float)
            # Exactly agreeing non-finite masks, rtol 1e-12 elsewhere.
            assert np.array_equal(
                np.isfinite(grid.performance[i]), np.isfinite(perf)
            )
            assert np.array_equal(np.isfinite(grid.power[i]), np.isfinite(power))
            finite = np.isfinite(perf)
            np.testing.assert_allclose(
                grid.performance[i][finite], perf[finite], rtol=1e-12
            )
            finite_p = np.isfinite(power)
            np.testing.assert_allclose(
                grid.power[i][finite_p], power[finite_p], rtol=1e-12
            )
            assert np.array_equal(
                grid.feasible[i], power <= space.power_budget
            )

    def test_catalog_argmax_identity(self):
        profiles = [get_application(n) for n in application_names()]
        tensor = explore(profiles, cache=False, engine="tensor")
        point = explore(profiles, cache=False, engine="point")
        assert tensor.best_mean_index == point.best_mean_index
        assert dict(tensor.per_app_best_index) == dict(
            point.per_app_best_index
        )
        for name in point.performance:
            assert np.array_equal(tensor.feasible[name], point.feasible[name])
            np.testing.assert_allclose(
                tensor.performance[name],
                point.performance[name],
                rtol=1e-12,
            )
            np.testing.assert_allclose(
                tensor.node_power[name], point.node_power[name], rtol=1e-12
            )

    def test_accepts_prebuilt_batch(self):
        apps = [get_application(n) for n in application_names()[:3]]
        model = NodeModel()
        via_batch = model.evaluate_grid(ProfileBatch.from_profiles(apps))
        via_profiles = model.evaluate_grid(apps)
        assert np.array_equal(
            via_batch.performance, via_profiles.performance
        )
        assert np.array_equal(via_batch.power, via_profiles.power)


class TestEngineSelection:
    def test_default_engine_is_tensor(self):
        assert default_engine() == "tensor"
        assert ENGINES == ("tensor", "point")

    def test_set_default_engine_roundtrip(self):
        previous = set_default_engine("point")
        try:
            assert previous == "tensor"
            assert default_engine() == "point"
        finally:
            set_default_engine(previous)
        assert default_engine() == "tensor"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            set_default_engine("magic")
        with pytest.raises(ValueError):
            explore([get_application("CoMD")], engine="magic")

    def test_explore_engine_override(self):
        profiles = [get_application("CoMD"), get_application("SNAP")]
        previous = set_default_engine("point")
        try:
            by_default = explore(profiles, cache=False)
            by_override = explore(profiles, cache=False, engine="tensor")
        finally:
            set_default_engine(previous)
        assert by_default.best_mean_index == by_override.best_mean_index


class TestGridCache:
    def test_whole_grid_memoized(self):
        cache = EvalCache()
        model = NodeModel()
        profiles = [get_application("CoMD"), get_application("SNAP")]
        g1 = evaluate_grid_cached(model, profiles, DesignSpace(), cache=cache)
        g2 = evaluate_grid_cached(model, profiles, DesignSpace(), cache=cache)
        assert g2 is g1
        assert (cache.stats().hits, cache.stats().misses) == (1, 1)

    def test_slab_is_its_own_entry_and_bit_identical(self):
        cache = EvalCache()
        model = NodeModel()
        space = DesignSpace()
        profiles = [get_application(n) for n in application_names()]
        whole = evaluate_grid_cached(model, profiles, space, cache=cache)
        slab = evaluate_grid_cached(model, profiles, space, 2, 5, cache=cache)
        assert cache.stats().misses == 2
        per_cu = len(space.frequencies) * len(space.bandwidths)
        assert np.array_equal(
            slab.performance, whole.performance[:, 2 * per_cu : 5 * per_cu]
        )
        assert np.array_equal(
            slab.power, whole.power[:, 2 * per_cu : 5 * per_cu]
        )

    def test_empty_slab_rejected(self):
        with pytest.raises(ValueError):
            evaluate_grid_cached(
                NodeModel(),
                [get_application("CoMD")],
                DesignSpace(),
                3,
                3,
                cache=EvalCache(),
            )

    def test_invalidate_drops_grid_entries(self):
        cache = EvalCache()
        model = NodeModel()
        profiles = [get_application("CoMD")]
        evaluate_grid_cached(model, profiles, DesignSpace(), cache=cache)
        assert cache.stats().entries == 1
        assert cache.invalidate(model=model) == 1
        assert cache.stats().entries == 0
        # Profile-scoped invalidation conservatively drops grid entries.
        evaluate_grid_cached(model, profiles, DesignSpace(), cache=cache)
        assert cache.invalidate(profile=get_application("SNAP")) == 1


class TestParallelSlabs:
    def _space(self):
        return DesignSpace(
            cu_counts=tuple(range(192, 385, 32)),
            frequencies=tuple(700e6 + 50e6 * k for k in range(9)),
            bandwidths=(1e12, 3e12, 5e12, 7e12),
        )

    def test_serial_fallback_matches_explore(self):
        profiles = [get_application(n) for n in application_names()[:4]]
        space = self._space()
        serial = explore(profiles, space, cache=False, engine="point")
        result = parallel_explore(profiles, space, n_chunks=3, pool=None)
        assert result.best_mean_index == serial.best_mean_index
        assert dict(result.per_app_best_index) == dict(
            serial.per_app_best_index
        )
        for name in serial.performance:
            np.testing.assert_allclose(
                result.performance[name],
                serial.performance[name],
                rtol=1e-12,
            )
            assert np.array_equal(
                result.feasible[name], serial.feasible[name]
            )

    def test_slabs_bit_identical_to_whole_grid(self):
        profiles = [get_application(n) for n in application_names()]
        space = self._space()
        grid = NodeModel().evaluate_grid(profiles, space)
        result = parallel_explore(profiles, space, n_chunks=4, pool=None)
        for i, name in enumerate(grid.names):
            assert np.array_equal(result.performance[name], grid.performance[i])
            assert np.array_equal(result.node_power[name], grid.power[i])

    def test_metrics_snapshot_counts_slab_lookups(self):
        profiles = [get_application(n) for n in application_names()[:4]]
        space = self._space()
        result, snap = parallel_explore(
            profiles, space, n_chunks=2, pool=None, metrics=True
        )
        lookups = snap.counter("cache.eval.hits") + snap.counter(
            "cache.eval.misses"
        )
        # n_blocks * n_slabs tasks, one cache lookup each.
        assert lookups == 4
        assert result.best_mean_index >= 0
