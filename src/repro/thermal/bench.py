"""Thermal-loop benchmark: amortized stepping + closed-loop control.

Measures what the ``check_thermal_transient`` gate gates, on the
Fig. 10-scale grid:

* cached modal stepping rate (per-mode LDL^T pivots built once per dt)
  vs the oracle that sparse-solves the assembled matrix every step (the
  ≥10x claim), plus the absolute steps/sec floor;
* transient-converges-to-steady equivalence: ``step_transient`` from
  ambient under constant power until the field stops moving, then max
  |ΔT| against :meth:`ThermalGrid.solve` of the same power;
* lockstep multi-scenario stepping (``step_transient_many``)
  bit-identity against per-scenario ``step_transient`` integration;
* the closed-loop story: a sprint/cool phase schedule on a
  thermally-infeasible operating point, integrated uncontrolled
  (exceeds the DRAM limit) and governed (stays under it);
* the governed loop's own rate (it advances one closed-form window per
  control tick) and the largest gap between its per-step DRAM peaks
  and the same schedule re-integrated one ``step_transient`` call at a
  time under the operating points the governed run chose.

``python -m repro thermal-loop`` routes here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import EHPConfig
from repro.core.node import NodeModel
from repro.core.thermal_governor import (
    ThermalGovernor,
    ThermalLoopResult,
    ThermalPhase,
)
from repro.obs import trace as obs_trace
from repro.thermal.analysis import ThermalModel
from repro.workloads.catalog import get_application

__all__ = ["ThermalLoopBenchReport", "run_thermal_loop_bench"]

HOT_CONFIG = EHPConfig(n_cus=384, gpu_freq=1.5e9, bandwidth=3e12)
"""Max-area, max-frequency point: thermally infeasible for MaxFlops
(steady DRAM peak far above the 85 C limit) — the uncontrolled replay
must exceed the limit for the closed-loop comparison to mean anything.
"""

# The closed-loop schedule's phases: a MaxFlops sprint, then a
# memory-bound CoMD cool-down, seconds each.
SPRINT_S = 2.0
COOL_S = 1.0
# The fixed-point check steps until no cell moves more than this in one
# step, or at most this many steps.
CONVERGE_TOL_C = 1e-9
CONVERGE_MAX_STEPS = 20_000
# The lockstep check: scenarios (power scaled 0.5-1.0) and steps.
BATCH_SCENARIOS = 3
BATCH_STEPS = 20


@dataclass(frozen=True)
class ThermalLoopBenchReport:
    """Outcome of one thermal-loop benchmark run."""

    cells: int
    dt_s: float
    factored_steps: int
    factored_s: float
    oracle_steps: int
    oracle_s: float
    factorization_s: float
    steps_per_s: float
    speedup: float
    converge_err_c: float
    converge_steps: int
    oracle_step_err_c: float
    batch_identical: bool
    governed: ThermalLoopResult
    replay: ThermalLoopResult
    governed_s: float
    window_gap_c: float
    extra: dict = field(default_factory=dict)

    @property
    def governed_steps_per_s(self) -> float:
        """Simulated steps per wall second of the governed run."""
        return self.governed.steps / self.governed_s

    def as_dict(self) -> dict:
        out = {
            k: getattr(self, k)
            for k in (
                "cells", "dt_s", "factored_steps", "factored_s",
                "oracle_steps", "oracle_s", "factorization_s",
                "steps_per_s", "speedup", "converge_err_c",
                "converge_steps", "oracle_step_err_c", "batch_identical",
                "governed_s", "governed_steps_per_s", "window_gap_c",
            )
        }
        out["governed"] = self.governed.as_dict()
        out["replay"] = self.replay.as_dict()
        out.update(self.extra)
        return out

    def render(self) -> str:
        g, r = self.governed, self.replay
        return "\n".join([
            "thermal-loop bench:",
            f"  grid          {self.cells} cells, dt {self.dt_s * 1e3:.0f} ms",
            f"  factored      {self.factored_steps} steps in "
            f"{self.factored_s * 1e3:.1f} ms "
            f"({self.steps_per_s:.0f} steps/s; one-time modal operator "
            f"and pivots {self.factorization_s * 1e3:.1f} ms)",
            f"  oracle        {self.oracle_steps} steps in "
            f"{self.oracle_s * 1e3:.1f} ms "
            f"({self.oracle_steps / self.oracle_s:.0f} steps/s)",
            f"  speedup       {self.speedup:.1f}x per step",
            f"  convergence   max |dT| {self.converge_err_c:.2e} C vs "
            f"steady solve after {self.converge_steps} steps",
            f"  oracle        max |dT| {self.oracle_step_err_c:.2e} C "
            f"modal vs sparse-solve step",
            f"  batched       "
            f"{'bit-identical' if self.batch_identical else 'DIVERGED'} "
            f"to per-scenario stepping",
            f"  uncontrolled  peak {r.max_peak_dram_c:.1f} C "
            f"({'within' if r.within_limit else 'EXCEEDS'} "
            f"{r.limit_c:.0f} C limit, "
            f"{r.time_over_limit_s:.1f} s over)",
            f"  governed      peak {g.max_peak_dram_c:.1f} C "
            f"({'within' if g.within_limit else 'EXCEEDS'} limit), "
            f"{len(g.throttle_events)} throttle events, "
            f"work {g.work_flops / r.work_flops:.0%} / "
            f"energy {g.energy_j / r.energy_j:.0%} of uncontrolled",
            f"  governed loop {g.steps} steps in "
            f"{self.governed_s * 1e3:.1f} ms "
            f"({self.governed_steps_per_s:.0f} steps/s), windowed vs "
            f"per-step peaks max |dT| {self.window_gap_c:.2e} C",
        ])


def _ambient(grid) -> np.ndarray:
    """A field at ambient: the cold start every check steps from."""
    shape = (grid.stack.n_layers, grid.ny, grid.nx)
    return np.full(shape, grid.stack.ambient_c)


def _per_step_peaks(
    governor: ThermalGovernor,
    phases: list[ThermalPhase],
    config: EHPConfig,
    result: ThermalLoopResult,
) -> np.ndarray:
    """*result*'s schedule re-integrated one
    :meth:`~repro.thermal.grid.ThermalGrid.step_transient` call at a
    time, under the operating points *result* chose: each phase starts
    at *config* or its feedforward cap and moves at each feedback
    notch. Returns the DRAM peak after every step.

    This follows *result*'s decisions rather than making its own, so it
    measures only how far the closed-form windows drift from per-step
    integration.
    """
    thermal = governor.thermal
    grid = thermal.grid
    dram = thermal.stack.layer_index("dram")
    dt = governor.dt
    events = {(e.kind, e.time_s): e for e in result.throttle_events}

    def maps_at(profile, event):
        cfg = config if event is None else config.with_axes(
            gpu_freq=event.gpu_freq, n_cus=event.n_cus
        )
        power = governor.model.evaluate(profile, cfg).power
        return thermal.build_power_maps(power)

    temps = _ambient(grid)
    peaks = []
    t = 0.0
    for phase in phases:
        maps = maps_at(phase.profile, events.get(("feedforward", t)))
        for _ in range(governor.steps_for(phase.duration_s)):
            temps = grid.step_transient(temps, maps, dt)
            t += dt
            peaks.append(float(temps[dram].max()))
            notch = events.get(("feedback", t))
            if notch is not None:
                maps = maps_at(phase.profile, notch)
    return np.asarray(peaks)


def run_thermal_loop_bench(
    *,
    nx: int = 66,
    ny: int = 22,
    dt: float = 0.01,
    factored_steps: int = 400,
    oracle_steps: int = 10,
    cycles: int = 2,
) -> ThermalLoopBenchReport:
    """The full thermal-loop benchmark on a fresh grid.

    *nx*/*ny* default to the Fig. 10 grid. *factored_steps* /
    *oracle_steps* size the two timing loops (the oracle factorizes the
    sparse matrix every step, so it gets far fewer). The phase schedule
    alternates *cycles* MaxFlops sprints of :data:`SPRINT_S` with
    memory-bound cool-down phases of :data:`COOL_S` on
    :data:`HOT_CONFIG`.
    """
    model = NodeModel()
    thermal = ThermalModel(nx=nx, ny=ny)
    grid = thermal.grid
    # Built first: it rejects a bad dt before anything steps with it.
    governor = ThermalGovernor(model=model, thermal=thermal, dt=dt)
    maxflops = get_application("MaxFlops")
    comd = get_application("CoMD")
    maps = thermal.build_power_maps(
        model.evaluate(maxflops, HOT_CONFIG).power
    )

    # -- stepping rate: cached modal solve vs per-step sparse solve
    ambient = _ambient(grid)
    temps = ambient
    t0 = time.perf_counter()
    grid._factor(dt)
    factorization_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(factored_steps):
        temps = grid.step_transient(temps, maps, dt)
    factored_s = time.perf_counter() - t0

    temps_o = ambient
    t0 = time.perf_counter()
    for _ in range(oracle_steps):
        temps_o = grid.step_transient_reference(temps_o, maps, dt)
    oracle_s = time.perf_counter() - t0
    speedup = (oracle_s / oracle_steps) / (factored_s / factored_steps)
    # Per-step correctness: the modal step and the reference, advanced
    # from the same mid-transient state, must agree to solver tolerance.
    oracle_step_err_c = float(np.abs(
        grid.step_transient(temps_o, maps, dt)
        - grid.step_transient_reference(temps_o, maps, dt)
    ).max())

    # -- transient fixed point == steady-state solve: at convergence the
    # backward-Euler fixed point *is* the solution of G T = P + G_b T_amb
    steady = grid.solve(maps)
    with obs_trace.span("thermal.converge", cells=grid.n_cells):
        converged = ambient
        for converge_steps in range(1, CONVERGE_MAX_STEPS + 1):
            stepped = grid.step_transient(converged, maps, dt)
            moved = float(np.abs(stepped - converged).max())
            converged = stepped
            if moved <= CONVERGE_TOL_C:
                break
    converge_err_c = float(np.abs(converged - steady.celsius).max())

    # -- lockstep batched stepping == per-scenario stepping
    scales = np.linspace(0.5, 1.0, BATCH_SCENARIOS)
    batch_maps = np.stack([maps * s for s in scales])
    with obs_trace.span(
        "thermal.transient_many", cells=grid.n_cells,
        scenarios=BATCH_SCENARIOS, steps=BATCH_STEPS,
    ):
        batch = np.broadcast_to(ambient, batch_maps.shape)
        for _ in range(BATCH_STEPS):
            batch = grid.step_transient_many(batch, batch_maps, dt)
        batch_identical = True
        for final, scenario_maps in zip(batch, batch_maps):
            solo = ambient
            for _ in range(BATCH_STEPS):
                solo = grid.step_transient(solo, scenario_maps, dt)
            if not np.array_equal(final, solo):
                batch_identical = False
                break

    # -- closed loop: governed stays under the limit, replay does not
    phases = []
    for _ in range(max(1, cycles)):
        phases.append(ThermalPhase(maxflops, SPRINT_S))
        phases.append(ThermalPhase(comd, COOL_S))
    replay = governor.replay(phases, HOT_CONFIG)
    t0 = time.perf_counter()
    governed = governor.run(phases, HOT_CONFIG)
    governed_s = time.perf_counter() - t0
    window_gap_c = float(np.abs(
        governed.peak_dram_c
        - _per_step_peaks(governor, phases, HOT_CONFIG, governed)
    ).max())

    return ThermalLoopBenchReport(
        cells=grid.n_cells,
        dt_s=dt,
        factored_steps=factored_steps,
        factored_s=factored_s,
        oracle_steps=oracle_steps,
        oracle_s=oracle_s,
        factorization_s=factorization_s,
        steps_per_s=factored_steps / factored_s,
        speedup=speedup,
        converge_err_c=converge_err_c,
        converge_steps=converge_steps,
        oracle_step_err_c=oracle_step_err_c,
        batch_identical=batch_identical,
        governed=governed,
        replay=replay,
        governed_s=governed_s,
        window_gap_c=window_gap_c,
    )
