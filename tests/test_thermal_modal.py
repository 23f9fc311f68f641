"""The modal thermal solve against the sparse oracle, and input checks.

The modal path (DCT transforms plus a per-mode LDL^T sweep) must match
``spsolve`` over the assembled matrix for any physical stack, steady
and per step. The oracle's step operator is built here from the layer
parameters directly, so a modal path that drops a layer's heat capacity
or a boundary term cannot agree with it by sharing the mistake.

The closed-form window (``ThermalGrid.advance``) must match the same
number of ``step_transient_reference`` steps, and the governed loop
built on it must make the decisions a per-step loop (kept below, as the
loop ran before the windows) makes, at 1e-9 C.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import diags
from scipy.sparse.linalg import spsolve

from repro.core.thermal_governor import (
    ThermalGovernor,
    ThermalPhase,
    ThrottleEvent,
)
from repro.thermal.bench import HOT_CONFIG
from repro.thermal.grid import ThermalGrid
from repro.thermal.stack import LayerStack, ThermalLayer
from repro.thermal.transient import PowerPhase, TransientSolver
from repro.workloads.catalog import get_application

TOL_C = 1e-9  # the tolerance check_perf's thermal gates use


def _log_uniform(lo: float, hi: float):
    return st.floats(
        min_value=math.log(lo), max_value=math.log(hi)
    ).map(math.exp)


@st.composite
def physical_grids(draw):
    """A random physical stack on a random grid.

    Per-layer vertical resistance stays below 1e-4 K.m^2/W and the power
    density below 50 W/cm^2, so fields stay within a few hundred degrees
    and 1e-9 C is a meaningful absolute tolerance.
    """
    layers = tuple(
        ThermalLayer(
            f"l{i}",
            thickness_m=draw(_log_uniform(20e-6, 500e-6)),
            conductivity=draw(_log_uniform(5.0, 400.0)),
            heat_source=True,
            volumetric_heat_capacity=draw(_log_uniform(5e5, 4e6)),
        )
        for i in range(draw(st.integers(1, 5)))
    )
    stack = LayerStack(
        layers=layers,
        sink_resistance_km2w=draw(_log_uniform(1e-5, 1e-3)),
        board_resistance_km2w=draw(_log_uniform(1e-4, 1e-2)),
        ambient_c=draw(st.floats(20.0, 60.0)),
    )
    grid = ThermalGrid(
        draw(st.floats(5.0, 80.0)),
        draw(st.floats(5.0, 80.0)),
        nx=draw(st.integers(2, 40)),
        ny=draw(st.integers(2, 40)),
        stack=stack,
    )
    dt = draw(_log_uniform(1e-4, 10.0))
    return grid, dt, draw(st.integers(0, 2**32 - 1))


def _oracle_steady(grid, maps):
    matrix, b_amb = grid._assemble()
    rhs = maps.reshape(len(maps), -1) + b_amb * grid.stack.ambient_c
    return np.stack([spsolve(matrix.tocsc(), r) for r in rhs])


def _oracle_step(grid, temps, maps, dt):
    matrix, b_amb = grid._assemble()
    plane = grid.ny * grid.nx
    c_over_dt = np.repeat([
        layer.volumetric_heat_capacity * layer.thickness_m * grid.dx
        * grid.dy / dt
        for layer in grid.stack.layers
    ], plane)
    operator = (matrix + diags(c_over_dt)).tocsc()
    rhs = (
        c_over_dt * temps.reshape(len(temps), -1)
        + maps.reshape(len(maps), -1)
        + b_amb * grid.stack.ambient_c
    )
    return np.stack([spsolve(operator, r) for r in rhs])


class TestModalMatchesOracle:
    @settings(max_examples=25, deadline=None)
    @given(physical_grids())
    @example((  # one layer on the smallest grid
        ThermalGrid(
            10.0, 10.0, nx=2, ny=2,
            stack=LayerStack(layers=(ThermalLayer("die", 1e-4, 120.0),)),
        ),
        0.01,
        0,
    ))
    def test_solves_and_steps_match_spsolve(self, case):
        grid, dt, seed = case
        rng = np.random.default_rng(seed)
        shape = (2, grid.stack.n_layers, grid.ny, grid.nx)
        maps = rng.random(shape) * 5e5 * grid.cell_area / shape[1]
        temps = grid.stack.ambient_c + 50.0 * rng.random(shape)

        steady = _oracle_steady(grid, maps)
        batch = grid.solve_batch(maps).celsius
        assert np.abs(batch.reshape(2, -1) - steady).max() <= TOL_C
        for k in range(2):
            single = grid.solve(maps[k]).celsius
            assert np.abs(single.ravel() - steady[k]).max() <= TOL_C

        stepped = _oracle_step(grid, temps, maps, dt)
        many = grid.step_transient_many(temps, maps, dt)
        assert np.abs(many.reshape(2, -1) - stepped).max() <= TOL_C
        for k in range(2):
            one = grid.step_transient(temps[k], maps[k], dt)
            assert np.abs(one.ravel() - stepped[k]).max() <= TOL_C
            assert np.array_equal(one, many[k])


class TestWindowMatchesReference:
    @settings(max_examples=20, deadline=None)
    @given(physical_grids(), st.integers(1, 12), st.data())
    def test_window_matches_reference_steps(self, case, n, data):
        grid, dt, seed = case
        watch = data.draw(st.integers(0, grid.stack.n_layers - 1))
        rng = np.random.default_rng(seed)
        shape = (grid.stack.n_layers, grid.ny, grid.nx)
        maps = rng.random(shape) * 5e5 * grid.cell_area / shape[0]
        temps = grid.stack.ambient_c + 50.0 * rng.random(shape)

        start, steady = grid.to_modes(temps), grid.steady_modes(maps)
        after, watched = grid.advance(start, steady, dt, n, watch=watch)
        # Every layer after every step, for the final field: the state
        # after the window is the same either way.
        after_all, fields = grid.advance(start, steady, dt, n)
        assert np.array_equal(after, after_all)
        assert watched.shape == (n, grid.ny, grid.nx)
        ref = temps
        for s in range(n):
            ref = grid.step_transient_reference(ref, maps, dt)
            assert abs(watched[s].max() - ref[watch].max()) <= TOL_C
        assert np.abs(fields[-1] - ref).max() <= TOL_C


def _per_step_run(governor, phases, config, controlled):
    """``ThermalGovernor.run``'s control loop, one ``step_transient``
    call per step and the DRAM peak read from each whole field."""
    solver = governor.solver
    thermal = governor.thermal
    dram = thermal.stack.layer_index("dram")
    feedback_at = governor.limit_c - governor.feedback_margin_c
    temps = solver.initial_temps()
    times, peaks, events, configs = [], [], [], []
    energy = work = t = 0.0
    for phase in phases:
        name = phase.profile.name
        active = config
        if controlled:
            active = governor.thermal_cap(phase.profile, config)
            if active != config:
                events.append(ThrottleEvent(
                    t, name, "feedforward", float(temps[dram].max()),
                    active.gpu_freq, active.n_cus,
                ))
        ev = governor.model.evaluate(phase.profile, active)
        maps = thermal.build_power_maps(ev.power)
        remaining = solver.steps_for(phase.duration_s)
        while remaining > 0:
            n = min(governor.control_every, remaining)
            for _ in range(n):
                temps = thermal.grid.step_transient(temps, maps, solver.dt)
                t += solver.dt
                times.append(t)
                peaks.append(float(temps[dram].max()))
            remaining -= n
            energy += float(ev.node_power) * n * solver.dt
            work += float(ev.performance) * n * solver.dt
            if controlled and remaining > 0 and peaks[-1] > feedback_at:
                lower = governor._next_down(active)
                if lower is not None:
                    active = lower
                    events.append(ThrottleEvent(
                        t, name, "feedback", peaks[-1],
                        active.gpu_freq, active.n_cus,
                    ))
                    ev = governor.model.evaluate(phase.profile, active)
                    maps = thermal.build_power_maps(ev.power)
        configs.append((name, active))
    return times, peaks, events, configs, energy, work


class TestGovernedWindowsMatchPerStep:
    @pytest.mark.parametrize("controlled", [True, False])
    @pytest.mark.parametrize("dt", [0.005, 0.01])
    def test_feedback_schedule(self, dt, controlled):
        governor = ThermalGovernor(margin_c=0.0, feedback_margin_c=4.0, dt=dt)
        maxflops, comd = get_application("MaxFlops"), get_application("CoMD")
        phases = [
            ThermalPhase(maxflops, 1.0),
            ThermalPhase(comd, 0.5),
            ThermalPhase(maxflops, 1.0),
        ]
        result = governor.run(phases, HOT_CONFIG, controlled=controlled)
        times, peaks, events, configs, energy, work = _per_step_run(
            governor, phases, HOT_CONFIG, controlled
        )
        if controlled:
            # The schedule exercises both kinds of intervention.
            assert {e.kind for e in events} == {"feedforward", "feedback"}
        assert np.array_equal(result.times, times)
        assert np.abs(result.peak_dram_c - peaks).max() <= TOL_C
        assert len(result.throttle_events) == len(events)
        for got, want in zip(result.throttle_events, events):
            assert abs(got.peak_dram_c - want.peak_dram_c) <= TOL_C
            assert got == dataclasses.replace(
                want, peak_dram_c=got.peak_dram_c
            )
        assert result.phase_configs == tuple(configs)
        assert result.energy_j == energy
        assert result.work_flops == work


class TestWindowsShareOnePowerSequence:
    """Every window of one dt slices its rows from one sequence of
    propagator powers; a window must hold the bits of one built alone
    (its own ``B^1 .. B^n`` chain) on a fresh grid."""

    @pytest.mark.parametrize("watch", [2, None])
    def test_tail_windows_match_windows_built_alone(self, watch):
        shared = ThermalGrid(66.0, 22.0)
        # The governed loop's order: the full tick first, then tails.
        for k in (5, 1, 2, 3, 4):
            op = shared._window_operator(0.01, k, watch)
            alone = ThermalGrid(66.0, 22.0)._window_operator(0.01, k, watch)
            assert np.array_equal(op, alone)
        assert len(shared._powers[0.01]) == 5


def _plan_phases(seed):
    """perfbench ``plan``'s sprint/cool schedule for *seed* (its
    generator draws the fleet's two numbers first)."""
    rng = np.random.default_rng(seed)
    rng.integers(9500, 10500)
    rng.integers(2**31)
    lengths = np.column_stack([rng.uniform(1.6, 2.4, 4),
                               rng.uniform(0.6, 1.4, 4)]).ravel()
    lengths *= 12.0 / lengths.sum()
    profiles = (get_application("MaxFlops"), get_application("CoMD"))
    return [
        ThermalPhase(profiles[i % 2], float(length))
        for i, length in enumerate(lengths)
    ]


def _windows_built_alone(grid):
    """Make *grid* build each window operator from a power chain of its
    own, as every window length did before they shared one."""
    build = grid._window_operator

    def window_operator(dt, n, watch):
        if (dt, n, watch) not in grid._windows:
            grid._powers.pop(dt, None)
        return build(dt, n, watch)

    grid._window_operator = window_operator


class TestGovernedRunsOnPlanSchedules:
    @pytest.mark.parametrize("seed", [11000, 11001, 11002, 301, 302])
    def test_shared_powers_keep_every_bit(self, seed):
        phases = _plan_phases(seed)
        shared = ThermalGovernor(dt=0.01)
        alone = ThermalGovernor(dt=0.01)
        _windows_built_alone(alone.thermal.grid)
        for run in ("run", "replay", "run"):
            got, want = (
                getattr(governor, run)(phases, HOT_CONFIG)
                for governor in (shared, alone)
            )
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.peak_dram_c, want.peak_dram_c)
            assert got.throttle_events == want.throttle_events
            assert got.phase_configs == want.phase_configs
            assert got.energy_j == want.energy_j
            assert got.work_flops == want.work_flops
        # Tail ticks are at most 4 steps, so 5 powers serve them all.
        assert len(shared.thermal.grid._powers[0.01]) == 5


GOOD_LAYER = dict(name="t", thickness_m=100e-6, conductivity=120.0)


class TestNonFiniteInputsRejected:
    @pytest.mark.parametrize("field,value", [
        ("thickness_m", math.inf),
        ("thickness_m", math.nan),
        ("conductivity", math.nan),
        ("conductivity", math.inf),
        ("volumetric_heat_capacity", math.nan),
        ("volumetric_heat_capacity", math.inf),
    ])
    def test_layer(self, field, value):
        with pytest.raises(ValueError):
            ThermalLayer(**{**GOOD_LAYER, field: value})

    @pytest.mark.parametrize("field,value", [
        ("ambient_c", math.nan),
        ("ambient_c", math.inf),
        ("sink_resistance_km2w", math.inf),
        ("sink_resistance_km2w", math.nan),
        ("board_resistance_km2w", math.inf),
    ])
    def test_stack(self, field, value):
        with pytest.raises(ValueError):
            LayerStack(**{field: value})

    @pytest.mark.parametrize("args,kwargs", [
        ((math.nan, 22.0), {}),
        ((66.0, math.inf), {}),
        ((66.0, 22.0), {"nx": 2.5}),
        ((66.0, 22.0), {"ny": 8.0}),
    ])
    def test_grid(self, args, kwargs):
        with pytest.raises(ValueError):
            ThermalGrid(*args, **kwargs)

    @pytest.fixture(scope="class")
    def grid(self):
        return ThermalGrid(66.0, 22.0, nx=22, ny=8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_power_maps(self, grid, bad):
        maps = np.zeros((3, grid.ny, grid.nx))
        maps[1, 2, 3] = bad
        temps = np.full(maps.shape, grid.stack.ambient_c)
        with pytest.raises(ValueError):
            grid.solve(maps)
        with pytest.raises(ValueError):
            grid.solve_batch(maps[None])
        with pytest.raises(ValueError):
            grid.step_transient(temps, maps, 0.01)
        with pytest.raises(ValueError):
            grid.step_transient_many(temps[None], maps[None], 0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_temperatures(self, grid, bad):
        maps = np.zeros((3, grid.ny, grid.nx))
        temps = np.full(maps.shape, grid.stack.ambient_c)
        temps[0, 1, 1] = bad
        with pytest.raises(ValueError):
            grid.step_transient(temps, maps, 0.01)
        with pytest.raises(ValueError):
            grid.step_transient_many(temps[None], maps[None], 0.01)

    def test_infinite_step_size(self, grid):
        maps = np.zeros((3, grid.ny, grid.nx))
        temps = np.full(maps.shape, grid.stack.ambient_c)
        with pytest.raises(ValueError):
            grid.step_transient(temps, maps, math.inf)
        with pytest.raises(ValueError):
            TransientSolver(grid, dt=math.inf)

    def test_infinite_phase_duration(self, grid):
        with pytest.raises(ValueError):
            PowerPhase(np.zeros((3, grid.ny, grid.nx)), math.inf)
