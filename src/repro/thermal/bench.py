"""Thermal-loop benchmark: amortized stepping + closed-loop control.

Measures what the ``check_thermal_transient`` gate gates, on the
Fig. 10-scale grid:

* cached modal stepping rate (per-mode LDL^T pivots built once per dt)
  vs the oracle that sparse-solves the assembled matrix every step (the
  ≥10x claim), plus the absolute steps/sec floor;
* transient-converges-to-steady equivalence (max |ΔT| against
  :meth:`ThermalGrid.solve` under the same constant power);
* lockstep multi-scenario stepping bit-identity against per-scenario
  integration;
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
from repro.thermal.analysis import ThermalModel
from repro.thermal.transient import TransientSolver
from repro.workloads.catalog import get_application

__all__ = ["ThermalLoopBenchReport", "run_thermal_loop_bench"]

HOT_CONFIG = EHPConfig(n_cus=384, gpu_freq=1.5e9, bandwidth=3e12)
"""Max-area, max-frequency point: thermally infeasible for MaxFlops
(steady DRAM peak far above the 85 C limit) — the uncontrolled replay
must exceed the limit for the closed-loop comparison to mean anything.
"""


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
    integration. Assumes *governor* has no reconfigurator.
    """
    thermal = governor.thermal
    dram = thermal.stack.layer_index("dram")
    dt = governor.solver.dt
    events = {(e.kind, e.time_s): e for e in result.throttle_events}

    def maps_at(profile, event):
        cfg = config if event is None else config.with_axes(
            gpu_freq=event.gpu_freq, n_cus=event.n_cus
        )
        power = governor.model.evaluate(profile, cfg).power
        return thermal.build_power_maps(power)

    temps = governor.solver.initial_temps()
    peaks = []
    t = 0.0
    for phase in phases:
        maps = maps_at(phase.profile, events.get(("feedforward", t)))
        for _ in range(governor.solver.steps_for(phase.duration_s)):
            temps = thermal.grid.step_transient(temps, maps, dt)
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
    sprint_s: float = 2.0,
    cool_s: float = 1.0,
    cycles: int = 2,
    batch_scenarios: int = 3,
    model: NodeModel | None = None,
) -> ThermalLoopBenchReport:
    """The full thermal-loop benchmark on a fresh grid.

    *nx*/*ny* default to the Fig. 10 grid. *factored_steps* /
    *oracle_steps* size the two timing loops (the oracle factorizes the
    sparse matrix every step, so it gets far fewer). The phase schedule
    alternates *cycles* MaxFlops sprints with memory-bound cool-down
    phases on :data:`HOT_CONFIG`.
    """
    model = model or NodeModel()
    thermal = ThermalModel(nx=nx, ny=ny)
    grid = thermal.grid
    maxflops = get_application("MaxFlops")
    comd = get_application("CoMD")
    maps = thermal.build_power_maps(
        model.evaluate(maxflops, HOT_CONFIG).power
    )

    # -- stepping rate: cached modal solve vs per-step sparse solve
    solver = TransientSolver(grid, dt=dt)
    temps = solver.initial_temps()
    t0 = time.perf_counter()
    grid._factor(dt)
    factorization_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(factored_steps):
        temps = grid.step_transient(temps, maps, dt)
    factored_s = time.perf_counter() - t0

    temps_o = solver.initial_temps()
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

    # -- transient fixed point == steady-state solve
    steady = grid.solve(maps)
    converged, converge_steps = solver.converge(maps, tol_c=1e-9)
    converge_err_c = float(
        np.abs(converged.celsius - steady.celsius).max()
    )

    # -- lockstep batched stepping == per-scenario stepping
    scales = np.linspace(0.5, 1.0, batch_scenarios)
    batch_maps = np.stack([maps * s for s in scales])
    batch_steps = 20
    final_batch, _ = solver.run_many(batch_maps, batch_steps)
    batch_identical = True
    for s in range(batch_scenarios):
        t_s = solver.initial_temps()
        for _ in range(batch_steps):
            t_s = solver.step(t_s, batch_maps[s])
        if not np.array_equal(final_batch[s], t_s):
            batch_identical = False
            break

    # -- closed loop: governed stays under the limit, replay does not
    governor = ThermalGovernor(model=model, thermal=thermal, dt=dt)
    phases = []
    for _ in range(max(1, cycles)):
        phases.append(ThermalPhase(maxflops, sprint_s))
        phases.append(ThermalPhase(comd, cool_s))
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
