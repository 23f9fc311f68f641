"""Transient thermal driver: phase schedules over the stepping grid.

The paper's thermal analysis (Figs. 10/11) is a steady-state snapshot,
but its central finding — the 3D DRAM stack's retention limit is what
bounds sustained APU power — is a *runtime* phenomenon: power maps
change as kernels phase, and the stack integrates them through its
thermal mass. This module drives
:meth:`~repro.thermal.grid.ThermalGrid.step_transient` through such
schedules:

* :class:`PowerPhase` — one power map held for a duration.
* :class:`TransientSolver` — backward-Euler integration of a phase
  schedule (:meth:`TransientSolver.run`), S scenarios in lockstep
  through one batched step per time step
  (:meth:`TransientSolver.run_many`), and steady-state convergence
  (:meth:`TransientSolver.converge`) — the bridge the equivalence test
  walks between the transient and steady solvers.

Every step here is one :meth:`~repro.thermal.grid.ThermalGrid.step_transient`
(or ``step_transient_many``) call, the n = 1 case of the grid's
closed-form window :meth:`~repro.thermal.grid.ThermalGrid.advance`, so
each step returns the whole field. The closed-loop policy that *reacts*
to these temperatures, :mod:`repro.core.thermal_governor`, watches only
the DRAM peak and calls ``advance`` once per control tick instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import _finite_positive, _is_int
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.thermal.grid import TemperatureField, ThermalGrid

__all__ = [
    "PowerPhase",
    "TransientTrace",
    "TransientSolver",
]


def _check_steps(name: str, value) -> None:
    """A step count must be a positive integer: NaN, 2.5 and ``True``
    are not counts, and none of them may silently run 0 or 3 steps."""
    if not (_is_int(value) and value > 0):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class PowerPhase:
    """One power map held constant for a stretch of simulated time."""

    power_maps: np.ndarray
    duration_s: float

    def __post_init__(self) -> None:
        if not _finite_positive(self.duration_s):
            raise ValueError(
                f"duration_s must be finite and positive, "
                f"got {self.duration_s!r}"
            )


@dataclass(frozen=True)
class TransientTrace:
    """Per-step history of one transient integration."""

    times: np.ndarray
    """End-of-step simulated times, seconds, shaped (steps,)."""

    peak_c: np.ndarray
    """Hottest cell anywhere in the stack after each step."""

    layer_peak_c: np.ndarray
    """Hottest cell of the watched layer after each step (equals
    ``peak_c`` when no layer is watched)."""

    final: TemperatureField
    """The full field after the last step."""

    @property
    def steps(self) -> int:
        """Number of integration steps taken."""
        return int(self.times.size)

    @property
    def max_peak_c(self) -> float:
        """Hottest watched-layer cell over the whole trace."""
        return float(self.layer_peak_c.max())


class TransientSolver:
    """Backward-Euler integrator over a :class:`ThermalGrid`.

    Parameters
    ----------
    grid:
        The grid whose ``C/dt + G`` per-mode pivots, cached per dt,
        every step solves against.
    dt:
        Step size, seconds. One set of pivots per distinct dt — keep it
        fixed per solver.
    watch_layer:
        Layer name whose per-step peak lands in
        :attr:`TransientTrace.layer_peak_c` (``None`` watches the whole
        stack).
    """

    def __init__(
        self,
        grid: ThermalGrid,
        dt: float = 0.01,
        watch_layer: str | None = "dram",
    ):
        if not _finite_positive(dt):
            raise ValueError("dt must be finite and positive")
        self.grid = grid
        self.dt = float(dt)
        names = tuple(l.name for l in grid.stack.layers)
        if watch_layer is not None and watch_layer not in names:
            watch_layer = None
        self.watch_layer = watch_layer
        self._watch_index = (
            names.index(watch_layer) if watch_layer is not None else None
        )

    # ------------------------------------------------------------------
    def initial_temps(self) -> np.ndarray:
        """A field at ambient — the cold-start initial condition."""
        shape = (self.grid.stack.n_layers, self.grid.ny, self.grid.nx)
        return np.full(shape, self.grid.stack.ambient_c)

    def steps_for(self, duration_s: float) -> int:
        """Whole steps covering *duration_s* (at least one)."""
        return max(1, round(float(duration_s) / self.dt))

    def step(self, temps: np.ndarray, power_maps: np.ndarray) -> np.ndarray:
        """One step (see :meth:`ThermalGrid.step_transient`)."""
        return self.grid.step_transient(temps, power_maps, self.dt)

    def _peaks(self, temps: np.ndarray) -> tuple[float, float]:
        peak = float(temps.max())
        if self._watch_index is None:
            return peak, peak
        return peak, float(temps[self._watch_index].max())

    # ------------------------------------------------------------------
    def run(
        self,
        phases: Sequence[PowerPhase],
        temps: np.ndarray | None = None,
    ) -> TransientTrace:
        """Integrate a phase schedule from *temps* (default: ambient)."""
        if not phases:
            raise ValueError("phase schedule must not be empty")
        if temps is None:
            temps = self.initial_temps()
        temps = np.asarray(temps, dtype=float)
        times: list[float] = []
        peaks: list[float] = []
        layer_peaks: list[float] = []
        t = 0.0
        with obs_trace.span(
            "thermal.transient", cells=self.grid.n_cells,
            phases=len(phases),
        ), obs_metrics.timed("thermal.transient_seconds"):
            for phase in phases:
                for _ in range(self.steps_for(phase.duration_s)):
                    temps = self.step(temps, phase.power_maps)
                    t += self.dt
                    peak, layer_peak = self._peaks(temps)
                    times.append(t)
                    peaks.append(peak)
                    layer_peaks.append(layer_peak)
        obs_metrics.inc("thermal.steps", len(times))
        obs_metrics.set_gauge("thermal.peak_c", peaks[-1])
        return TransientTrace(
            times=np.asarray(times),
            peak_c=np.asarray(peaks),
            layer_peak_c=np.asarray(layer_peaks),
            final=TemperatureField(
                celsius=temps,
                layer_names=tuple(
                    l.name for l in self.grid.stack.layers
                ),
            ),
        )

    def run_many(
        self,
        power_maps: np.ndarray,
        n_steps: int,
        temps: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step S scenarios *n_steps* times in lockstep.

        *power_maps* is either ``(s, n_layers, ny, nx)`` (one constant
        map per scenario) or ``(s, n_steps, n_layers, ny, nx)`` (a
        per-step power trace per scenario). Every step advances all S
        scenarios through one batched modal solve. Returns
        ``(final_temps (s, n_layers, ny, nx), watched-layer peaks
        (s, n_steps))`` — bit-identical per scenario to S independent
        :meth:`run` integrations.
        """
        _check_steps("n_steps", n_steps)
        power_maps = np.asarray(power_maps, dtype=float)
        if power_maps.ndim == 4:
            per_step = False
        elif power_maps.ndim == 5:
            per_step = True
            if power_maps.shape[1] != n_steps:
                raise ValueError(
                    f"per-step power trace has {power_maps.shape[1]} "
                    f"steps, expected {n_steps}"
                )
        else:
            raise ValueError(
                f"power_maps must be (s, layers, ny, nx) or "
                f"(s, steps, layers, ny, nx), got {power_maps.shape}"
            )
        s = power_maps.shape[0]
        if temps is None:
            temps = np.broadcast_to(
                self.initial_temps(), (s,) + self.initial_temps().shape
            ).copy()
        temps = np.asarray(temps, dtype=float)
        li = self._watch_index
        peaks = np.empty((s, n_steps))
        with obs_trace.span(
            "thermal.transient_many", cells=self.grid.n_cells,
            scenarios=s, steps=n_steps,
        ), obs_metrics.timed("thermal.transient_seconds"):
            for k in range(n_steps):
                maps = power_maps[:, k] if per_step else power_maps
                temps = self.grid.step_transient_many(temps, maps, self.dt)
                watched = temps if li is None else temps[:, li]
                peaks[:, k] = watched.reshape(s, -1).max(axis=1)
        obs_metrics.inc("thermal.steps", s * n_steps)
        return temps, peaks

    def converge(
        self,
        power_maps: np.ndarray,
        temps: np.ndarray | None = None,
        tol_c: float = 1e-9,
        max_steps: int = 20_000,
    ) -> tuple[TemperatureField, int]:
        """Step under constant power until the field stops moving.

        Returns the converged field and the steps taken. At
        convergence the backward-Euler fixed point *is* the
        steady-state solution ``G T = P + G_b T_amb`` — the equivalence
        the oracle test pins against :meth:`ThermalGrid.solve`.
        """
        # A NaN tolerance is never met: it would run max_steps silently.
        if not 0 <= tol_c < math.inf:
            raise ValueError(
                f"tol_c must be finite and non-negative, got {tol_c!r}"
            )
        _check_steps("max_steps", max_steps)
        if temps is None:
            temps = self.initial_temps()
        temps = np.asarray(temps, dtype=float)
        steps = 0
        with obs_trace.span(
            "thermal.converge", cells=self.grid.n_cells
        ), obs_metrics.timed("thermal.transient_seconds"):
            while steps < max_steps:
                new = self.step(temps, power_maps)
                steps += 1
                moved = float(np.abs(new - temps).max())
                temps = new
                if moved <= tol_c:
                    break
        obs_metrics.inc("thermal.steps", steps)
        return (
            TemperatureField(
                celsius=temps,
                layer_names=tuple(
                    l.name for l in self.grid.stack.layers
                ),
            ),
            steps,
        )
