"""Transient thermal stepping and the closed-loop governor."""

import numpy as np
import pytest

from repro.core.config import EHPConfig, PAPER_BEST_MEAN
from repro.core.node import NodeModel
from repro.core.thermal_governor import (
    ThermalGovernor,
    ThermalPhase,
)
from repro.thermal.analysis import DRAM_LIMIT_C, ThermalModel
from repro.thermal.grid import (
    TemperatureFieldBatch,
    ThermalGrid,
)
from repro.thermal.transient import (
    PowerPhase,
    TransientSolver,
)
from repro.workloads.catalog import get_application

HOT = EHPConfig(n_cus=384, gpu_freq=1.5e9, bandwidth=3e12)


@pytest.fixture(scope="module")
def grid():
    return ThermalGrid(66.0, 22.0, nx=22, ny=8)


@pytest.fixture(scope="module")
def maps(grid):
    rng = np.random.default_rng(7)
    return 0.5 * rng.random((grid.stack.n_layers, grid.ny, grid.nx))


class TestStepTransient:
    def test_constant_power_converges_to_steady(self, grid, maps):
        steady = grid.solve(maps)
        solver = TransientSolver(grid, dt=0.05)
        field, steps = solver.converge(maps, tol_c=1e-10)
        assert steps < 20_000
        err = float(np.abs(field.celsius - steady.celsius).max())
        assert err < 1e-6

    def test_oracle_and_factored_agree_per_step(self, grid, maps):
        solver = TransientSolver(grid, dt=0.01)
        temps = solver.initial_temps()
        for _ in range(5):
            temps = grid.step_transient(temps, maps, 0.01)
        fact = grid.step_transient(temps, maps, 0.01)
        oracle = grid.step_transient_reference(temps, maps, 0.01)
        assert float(np.abs(fact - oracle).max()) < 1e-9

    def test_factorization_cached_per_dt(self, grid, maps):
        temps = np.full(maps.shape, grid.stack.ambient_c)
        grid.step_transient(temps, maps, 0.01)
        pivots = grid._pivots[0.01]
        grid.step_transient(temps, maps, 0.02)
        grid.step_transient(temps, maps, 0.01)
        assert set(grid._pivots) >= {0.01, 0.02}
        assert grid._pivots[0.01] is pivots
        # Each step size gets its own pivots.
        assert not np.array_equal(
            grid._pivots[0.01].inv_pivot, grid._pivots[0.02].inv_pivot
        )

    def test_step_preserves_shape_and_input(self, grid, maps):
        temps = np.full(maps.shape, grid.stack.ambient_c)
        before = temps.copy()
        out = grid.step_transient(temps, maps, 0.01)
        assert out.shape == maps.shape
        assert np.array_equal(temps, before)

    def test_validation(self, grid, maps):
        temps = np.full(maps.shape, grid.stack.ambient_c)
        # The reference validates its inputs as the fast path does.
        for step in (grid.step_transient, grid.step_transient_reference):
            with pytest.raises(ValueError):
                step(temps, maps, 0.0)
            with pytest.raises(ValueError):
                step(temps, maps, float("nan"))
            with pytest.raises(ValueError):
                step(temps[0], maps, 0.01)
            with pytest.raises(ValueError):
                step(temps, maps[:, :4], 0.01)
            with pytest.raises(ValueError):
                step(temps + np.inf, maps, 0.01)

    def test_lockstep_many_matches_per_scenario(self, grid, maps):
        batch = np.stack([maps * s for s in (0.3, 0.7, 1.0)])
        temps = np.full(batch.shape, grid.stack.ambient_c)
        stepped = temps
        for _ in range(4):
            stepped = grid.step_transient_many(stepped, batch, 0.01)
        for s in range(3):
            solo = temps[s]
            for _ in range(4):
                solo = grid.step_transient(solo, batch[s], 0.01)
            assert np.array_equal(stepped[s], solo)

    def test_lockstep_many_oracle_engine(self, grid, maps):
        # Lockstep stepping against the sparse-solve reference, one
        # scenario at a time.
        batch = np.stack([maps, maps * 0.5])
        temps = np.full(batch.shape, grid.stack.ambient_c)
        fact = grid.step_transient_many(temps, batch, 0.01)
        oracle = np.stack([
            grid.step_transient_reference(t, m, 0.01)
            for t, m in zip(temps, batch)
        ])
        assert float(np.abs(fact - oracle).max()) < 1e-9

    def test_lockstep_many_empty(self, grid):
        empty = np.empty((0, grid.stack.n_layers, grid.ny, grid.nx))
        out = grid.step_transient_many(empty, empty, 0.01)
        assert out.shape == empty.shape


class TestAdvance:
    @pytest.fixture(scope="class")
    def state(self, grid, maps):
        rng = np.random.default_rng(3)
        temps = grid.stack.ambient_c + 40.0 * rng.random(maps.shape)
        return grid.to_modes(temps), grid.steady_modes(maps), temps

    def test_step_is_the_one_step_window(self, grid, maps, state):
        modes, steady, temps = state
        after, fields = grid.advance(modes, steady, 0.01, 1)
        stepped = grid.step_transient(temps, maps, 0.01)
        assert fields.shape == (1,) + maps.shape
        assert np.array_equal(fields[0], stepped)
        assert np.abs(after - grid.to_modes(stepped)).max() < 1e-12

    def test_watched_window_is_the_full_window_layer(self, grid, state):
        modes, steady, _ = state
        after, watched = grid.advance(modes, steady, 0.01, 5, watch=2)
        full_after, fields = grid.advance(modes, steady, 0.01, 5)
        assert watched.shape == (5, grid.ny, grid.nx)
        assert np.abs(watched - fields[:, 2]).max() < 1e-12
        assert np.abs(after - full_after).max() < 1e-12

    def test_batch_is_bit_identical_per_member(self, grid, maps):
        temps = grid.stack.ambient_c + np.stack([
            np.full(maps.shape, 5.0), np.zeros(maps.shape),
            np.linspace(0.0, 30.0, maps.size).reshape(maps.shape),
        ])
        modes = grid.to_modes(temps)
        steady = grid.steady_modes(np.stack([maps, maps * 0.5, maps * 2]))
        after, watched = grid.advance(modes, steady, 0.01, 5, watch=2)
        for k in range(3):
            one_after, one_watched = grid.advance(
                modes[k], steady[k], 0.01, 5, watch=2
            )
            assert np.array_equal(after[k], one_after)
            assert np.array_equal(watched[k], one_watched)

    def test_long_window_goes_block_by_block(self, grid, maps, state):
        modes, steady, temps = state
        after, watched = grid.advance(modes, steady, 0.01, 40, watch=2)
        assert watched.shape == (40, grid.ny, grid.nx)
        blocks = []
        part = modes
        for n in (16, 16, 8):
            part, block = grid.advance(part, steady, 0.01, n, watch=2)
            blocks.append(block)
        assert np.array_equal(after, part)
        assert np.array_equal(watched, np.concatenate(blocks))
        for s in range(40):
            temps = grid.step_transient(temps, maps, 0.01)
            assert np.abs(watched[s] - temps[2]).max() < 1e-9
        assert np.abs(after - grid.to_modes(temps)).max() < 1e-9

    def test_window_operator_cached_per_dt_n_and_watch(self, maps):
        grid = ThermalGrid(66.0, 22.0, nx=22, ny=8)
        temps = np.full(maps.shape, grid.stack.ambient_c)
        modes, steady = grid.to_modes(temps), grid.steady_modes(maps)
        grid.advance(modes, steady, 0.01, 5, watch=2)
        op = grid._windows[(0.01, 5, 2)]
        grid.advance(modes, steady, 0.01, 5, watch=2)
        grid.advance(modes, steady, 0.01, 3, watch=2)
        assert grid._windows[(0.01, 5, 2)] is op
        assert set(grid._windows) == {(0.01, 5, 2), (0.01, 3, 2)}
        grid.stack = grid.stack.__class__(ambient_c=40.0)
        assert not grid._windows

    def test_steady_modes_are_the_fixed_point(self, grid, maps):
        steady = grid.steady_modes(maps)
        after, fields = grid.advance(steady, steady, 0.01, 3)
        assert np.array_equal(after, steady)
        assert np.abs(fields - grid.solve(maps).celsius).max() < 1e-12

    @pytest.mark.parametrize("kwargs", [
        {"n": 0}, {"n": -1}, {"n": 2.5}, {"n": True}, {"n": float("nan")},
        {"dt": 0.0}, {"dt": float("inf")},
        {"watch": 3}, {"watch": -1}, {"watch": True}, {"watch": 1.0},
    ])
    def test_validation(self, grid, state, kwargs):
        modes, steady, _ = state
        args = {"dt": 0.01, "n": 2, **kwargs}
        with pytest.raises(ValueError):
            grid.advance(modes, steady, **args)

    def test_rejects_bad_states(self, grid, state):
        modes, steady, _ = state
        with pytest.raises(ValueError):
            grid.advance(modes[:2], steady[:2], 0.01, 2)
        with pytest.raises(ValueError):
            grid.advance(modes[None], steady, 0.01, 2)
        bad = modes.copy()
        bad[1, 2, 3] = np.nan
        with pytest.raises(ValueError):
            grid.advance(bad, steady, 0.01, 2)
        with pytest.raises(ValueError):
            grid.advance(modes, steady + np.inf, 0.01, 2)
        with pytest.raises(ValueError):
            grid.to_modes(np.full(modes.shape, np.inf))
        with pytest.raises(ValueError):
            grid.steady_modes(np.full(modes.shape, -1.0))


class TestSolveBatch:
    def test_solve_many_matches_sequential_solves(self, grid, maps):
        batch = np.stack([maps * (1.0 + 0.1 * k) for k in range(4)])
        fields = grid.solve_many(batch)
        for k in range(4):
            solo = grid.solve(batch[k])
            assert np.array_equal(fields[k].celsius, solo.celsius)

    def test_solve_batch_peaks(self, grid, maps):
        batch = np.stack([maps, maps * 2.0])
        out = grid.solve_batch(batch)
        assert isinstance(out, TemperatureFieldBatch)
        assert len(out) == 2
        peaks = out.peaks("dram")
        assert peaks.shape == (2,)
        assert peaks[1] > peaks[0]
        assert np.array_equal(
            out.peaks(), out.celsius.max(axis=(1, 2, 3))
        )

    def test_solve_batch_empty(self, grid):
        empty = np.empty((0, grid.stack.n_layers, grid.ny, grid.nx))
        out = grid.solve_batch(empty)
        assert len(out) == 0
        assert out.fields() == []


class TestInvalidateGuard:
    def test_mutated_grid_never_serves_stale_factorization(self, maps):
        grid = ThermalGrid(66.0, 22.0, nx=22, ny=8)
        grid.solve(maps)  # caches the modal operator + steady pivots
        assert grid.factorization_cached
        grid.width_m = 0.033  # narrower package, hotter cells
        assert grid._modes is None and not grid.factorization_cached
        fresh = ThermalGrid(33.0, 22.0, nx=22, ny=8)
        assert np.array_equal(
            grid.solve(maps).celsius, fresh.solve(maps).celsius
        )

    def test_mutation_invalidates_transient_cache(self, maps):
        grid = ThermalGrid(66.0, 22.0, nx=22, ny=8)
        temps = np.full(maps.shape, grid.stack.ambient_c)
        grid.step_transient(temps, maps, 0.01)
        assert 0.01 in grid._pivots and grid._modes is not None
        grid.stack = grid.stack.__class__(ambient_c=40.0)
        assert not grid._pivots and grid._modes is None
        fresh = ThermalGrid(
            66.0, 22.0, nx=22, ny=8, stack=grid.stack
        )
        t_mut = np.full(maps.shape, 40.0)
        assert np.array_equal(
            grid.step_transient(t_mut, maps, 0.01),
            fresh.step_transient(t_mut, maps, 0.01),
        )

    def test_mutation_before_first_solve_is_free(self, maps):
        grid = ThermalGrid(66.0, 22.0, nx=22, ny=8)
        grid.nx = 22  # no cached state yet: plain attribute set
        assert grid._system is None
        grid.solve(maps)


class TestTransientSolver:
    def test_run_trace_shapes(self, grid, maps):
        solver = TransientSolver(grid, dt=0.01)
        trace = solver.run([
            PowerPhase(maps, 0.1), PowerPhase(maps * 0.2, 0.05),
        ])
        assert trace.steps == 15
        assert trace.times.shape == trace.peak_c.shape == (15,)
        assert np.all(np.diff(trace.times) > 0)
        assert trace.max_peak_c == trace.layer_peak_c.max()
        assert trace.final.celsius.shape == maps.shape
        # Warm-up under power: the watched peak must have risen.
        assert trace.peak_c[-1] > grid.stack.ambient_c

    def test_empty_schedule_rejected(self, grid):
        with pytest.raises(ValueError):
            TransientSolver(grid).run([])

    def test_phase_and_solver_validation(self, grid, maps):
        with pytest.raises(ValueError):
            PowerPhase(maps, 0.0)
        with pytest.raises(ValueError):
            TransientSolver(grid, dt=-1.0)

    def test_watch_layer_fallback(self, grid):
        solver = TransientSolver(grid, watch_layer="no-such-layer")
        assert solver.watch_layer is None

    def test_run_many_constant_and_per_step_traces(self, grid, maps):
        solver = TransientSolver(grid, dt=0.01)
        batch = np.stack([maps, maps * 0.5])
        final, peaks = solver.run_many(batch, 6)
        assert final.shape == batch.shape
        assert peaks.shape == (2, 6)
        # A per-step trace holding the same map every step is the same
        # integration.
        per_step = np.repeat(batch[:, None], 6, axis=1)
        final2, peaks2 = solver.run_many(per_step, 6)
        assert np.array_equal(final, final2)
        assert np.array_equal(peaks, peaks2)

    def test_run_many_validation(self, grid, maps):
        solver = TransientSolver(grid)
        batch = np.stack([maps])
        with pytest.raises(ValueError):
            solver.run_many(batch, 0)
        with pytest.raises(ValueError):
            solver.run_many(maps, 4)  # 3-D: missing scenario axis
        with pytest.raises(ValueError):
            solver.run_many(np.repeat(batch[:, None], 3, axis=1), 4)


class TestThermalGovernor:
    @pytest.fixture(scope="class")
    def governor(self):
        return ThermalGovernor()

    @pytest.fixture(scope="class")
    def phases(self):
        return [
            ThermalPhase(get_application("MaxFlops"), 0.6),
            ThermalPhase(get_application("CoMD"), 0.3),
        ]

    def test_replay_exceeds_limit_governed_does_not(
        self, governor, phases
    ):
        replay = governor.replay(phases, HOT)
        governed = governor.run(phases, HOT)
        assert not replay.within_limit
        assert replay.max_peak_dram_c > DRAM_LIMIT_C
        assert governed.within_limit
        assert governed.time_over_limit_s == 0.0
        assert governed.throttle_events
        assert governed.steps == replay.steps

    def test_governor_only_backs_off(self, governor, phases):
        governed = governor.run(phases, HOT)
        for _, cfg in governed.phase_configs:
            assert cfg.gpu_freq <= HOT.gpu_freq
            assert cfg.n_cus <= HOT.n_cus
        for event in governed.throttle_events:
            assert event.gpu_freq <= HOT.gpu_freq
            assert event.n_cus <= HOT.n_cus

    def test_governed_work_costs_less_energy(self, governor, phases):
        replay = governor.replay(phases, HOT)
        governed = governor.run(phases, HOT)
        assert 0.0 < governed.work_flops < replay.work_flops
        assert 0.0 < governed.energy_j < replay.energy_j

    def test_cool_point_untouched(self, governor):
        phases = [ThermalPhase(get_application("CoMD"), 0.2)]
        governed = governor.run(phases, PAPER_BEST_MEAN)
        assert governed.phase_configs[0][1] == PAPER_BEST_MEAN
        assert not governed.throttle_events

    def test_empty_schedule_rejected(self, governor):
        with pytest.raises(ValueError):
            governor.run([], HOT)

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            ThermalPhase(get_application("CoMD"), 0.0)

    def test_cap_matches_a_point_by_point_ladder_walk(self):
        # The batched ladder against the walk it replaced: one steady
        # solve per ladder point, top down, then CU gating.
        for margin in (0.0, 2.0, 25.0):
            governor = ThermalGovernor(margin_c=margin)
            walker = ThermalGovernor(margin_c=margin)
            target = walker.limit_c - margin
            for name in ("MaxFlops", "CoMD", "HPGMG"):
                profile = get_application(name)
                for config in (HOT, PAPER_BEST_MEAN):
                    for freq in walker._ladder_down(config.gpu_freq):
                        cand = config.with_axes(gpu_freq=freq)
                        if walker.steady_peak(profile, cand) <= target:
                            break
                    else:
                        while walker.steady_peak(profile, cand) > target:
                            lower = walker._gate_down(cand)
                            if lower is None:
                                break
                            cand = lower
                    assert governor.thermal_cap(profile, config) == cand
            for key, peak in governor._steady_peak_cache.items():
                assert peak == walker.steady_peak(
                    get_application(key[0]), key[1]
                )

    def test_batched_power_maps_match_each_point(self):
        thermal, model = ThermalModel(), NodeModel()
        profile = get_application("MaxFlops")
        freqs = np.array([1.5e9, 1.2e9, 0.9e9])
        power = model.evaluate_arrays(profile, 384, freqs, 3e12).power
        batch = thermal.build_power_maps(power)
        assert batch.shape == (3,) + thermal.grid.solve(batch[0]).celsius.shape
        for k, freq in enumerate(freqs):
            point = model.evaluate(profile, HOT.with_axes(gpu_freq=freq))
            assert np.array_equal(
                batch[k], thermal.build_power_maps(point.power)
            )

    def test_cap_is_memoized(self, governor):
        p = get_application("MaxFlops")
        a = governor.thermal_cap(p, HOT)
        solves_before = len(governor._steady_peak_cache)
        b = governor.thermal_cap(p, HOT)
        assert a is b
        assert len(governor._steady_peak_cache) == solves_before

    @staticmethod
    def _assert_same_run(a, b):
        assert a.times.tobytes() == b.times.tobytes()
        assert a.peak_dram_c.tobytes() == b.peak_dram_c.tobytes()
        assert a.throttle_events == b.throttle_events
        assert a.phase_configs == b.phase_configs
        assert (a.energy_j, a.work_flops) == (b.energy_j, b.work_flops)

    def test_repeat_and_fresh_runs_are_identical(self):
        # The second run takes every window from the governor's memo.
        maxflops, comd = get_application("MaxFlops"), get_application("CoMD")
        phases = [
            ThermalPhase(maxflops, 1.0),
            ThermalPhase(comd, 0.5),
            ThermalPhase(maxflops, 1.0),
        ]
        governor = ThermalGovernor(margin_c=0.0, feedback_margin_c=4.0)
        first = governor.run(phases, HOT)
        assert {e.kind for e in first.throttle_events} == {
            "feedforward", "feedback"
        }
        self._assert_same_run(first, governor.run(phases, HOT))
        fresh = ThermalGovernor(margin_c=0.0, feedback_margin_c=4.0)
        self._assert_same_run(first, fresh.run(phases, HOT))

    def test_each_window_is_evaluated_once(self, monkeypatch):
        calls = []
        evaluate = NodeModel.evaluate

        def spy(model, profile, config, **kwargs):
            calls.append((profile.name, config))
            return evaluate(model, profile, config, **kwargs)

        monkeypatch.setattr(NodeModel, "evaluate", spy)
        maxflops, comd = get_application("MaxFlops"), get_application("CoMD")
        phases = [
            ThermalPhase(maxflops, 1.0),
            ThermalPhase(comd, 0.5),
            ThermalPhase(maxflops, 1.0),
            ThermalPhase(comd, 0.5),
        ]
        governor = ThermalGovernor(margin_c=0.0, feedback_margin_c=4.0)
        runs = [
            governor.run(phases, HOT),
            governor.replay(phases, HOT),
            governor.run(phases, HOT),
        ]
        # Every (profile, config) a run held power at: each phase's
        # entry point, moved by its throttle events.
        windows = set()
        for result in runs:
            events = list(result.throttle_events)
            for phase in phases:
                name = phase.profile.name
                config = HOT
                if events and events[0].kind == "feedforward" \
                        and events[0].phase == name:
                    event = events.pop(0)
                    config = HOT.with_axes(
                        gpu_freq=event.gpu_freq, n_cus=event.n_cus
                    )
                windows.add((name, config))
                while events and events[0].kind == "feedback" \
                        and events[0].phase == name:
                    event = events.pop(0)
                    config = config.with_axes(
                        gpu_freq=event.gpu_freq, n_cus=event.n_cus
                    )
                    windows.add((name, config))
            assert not events
        assert len(windows) > len(phases) // 2
        assert sorted(calls, key=repr) == sorted(windows, key=repr)

    def test_as_dict_round_trips_to_json(self, governor, phases):
        import json

        governed = governor.run(phases, HOT)
        blob = json.dumps(governed.as_dict())
        assert "throttle_events" in blob


def test_thermal_loop_cli_smoke(capsys):
    from repro.__main__ import main

    code = main([
        "thermal-loop", "--thermal-steps", "30", "--thermal-cycles", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "governed" in out and "EXCEEDS" in out
