"""Closed-loop thermal governor over the transient stack model.

The paper designs to the 3D DRAM refresh limit (85 C, Section V-D) as a
*static* constraint: pick a configuration whose steady-state peak stays
under it. A runtime has the complementary problem — the DSE-chosen
configuration may be thermally safe for the mean workload but not for a
compute-intensive sprint, and the stack's thermal mass means violations
build over seconds, not instantly. This module closes that loop:

* :class:`ThermalGovernor` integrates the transient model through a
  phase schedule while capping each phase's operating point so the
  simulated DRAM peak stays under the limit. Control is hybrid:

  - **feedforward** — before a phase starts, pick the highest
    frequency on the :class:`~repro.core.governor.DvfsGovernor` ladder
    whose *steady-state* DRAM peak clears the limit minus a margin (the
    ladder points at or below the cap are priced together: one
    batched node evaluation and one batched modal solve, memoized per
    (profile values, config)), gating CU groups when even the ladder
    floor is too hot;
  - **feedback** — every control tick, notch down one more ladder step
    if the *simulated* peak still crosses the threshold (the backstop
    for model mismatch and inherited heat from earlier phases).

  The governor only backs off: a governed phase never runs above the
  DSE-chosen frequency cap or CU count. Its result carries per-step
  DRAM peaks, not fields, so the run keeps the stack's state in the
  grid's modal coordinates throughout and advances each control tick
  as one closed-form window
  (:meth:`~repro.thermal.grid.ThermalGrid.advance`) that transforms
  back only the DRAM layer; power is held constant within a tick,
  which is what makes the closed form exact. A window's fixed point
  (with its node power and throughput) is memoized per (profile
  values, config) like the steady peaks and caps, so a schedule that
  returns to a window, or another run on the same governor, evaluates
  and solves it once. This is the only phase-schedule integrator over
  the grid.

* :meth:`ThermalGovernor.replay` integrates the same schedule with the
  control loop disabled — the uncontrolled baseline whose excursions
  past the limit are exactly what the governed run must avoid.

Used by ``python -m repro thermal-loop`` and the
``check_thermal_transient`` perf gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import EHPConfig, _finite_positive
from repro.core.governor import DvfsGovernor
from repro.core.node import NodeModel
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.thermal.analysis import DRAM_LIMIT_C, ThermalModel
from repro.workloads.kernels import KernelProfile, profile_key

__all__ = [
    "ThermalPhase",
    "ThrottleEvent",
    "ThermalLoopResult",
    "ThermalGovernor",
]


@dataclass(frozen=True)
class ThermalPhase:
    """One workload phase: a kernel profile held for a duration."""

    profile: KernelProfile
    duration_s: float

    def __post_init__(self) -> None:
        if not _finite_positive(self.duration_s):
            raise ValueError(
                f"duration_s must be finite and positive, "
                f"got {self.duration_s!r}"
            )


@dataclass(frozen=True)
class ThrottleEvent:
    """One governor intervention."""

    time_s: float
    phase: str
    kind: str
    """``"feedforward"`` (pre-phase cap) or ``"feedback"`` (mid-phase
    notch-down)."""

    peak_dram_c: float
    """Simulated DRAM peak when the decision was taken."""

    gpu_freq: float
    n_cus: int
    """The operating point the governor moved *to*."""


@dataclass(frozen=True)
class ThermalLoopResult:
    """One closed-loop (or replay) integration of a phase schedule."""

    controlled: bool
    times: np.ndarray
    peak_dram_c: np.ndarray
    throttle_events: tuple[ThrottleEvent, ...]
    phase_configs: tuple[tuple[str, EHPConfig], ...]
    energy_j: float
    work_flops: float
    limit_c: float

    @property
    def steps(self) -> int:
        """Transient steps integrated."""
        return int(self.times.size)

    @property
    def max_peak_dram_c(self) -> float:
        """Hottest simulated DRAM cell over the whole run."""
        return float(self.peak_dram_c.max())

    @property
    def within_limit(self) -> bool:
        """Did the DRAM stack stay under the refresh limit throughout?"""
        return self.max_peak_dram_c <= self.limit_c

    @property
    def time_over_limit_s(self) -> float:
        """Simulated seconds spent above the limit."""
        if self.times.size < 2:
            dt = float(self.times[0]) if self.times.size else 0.0
        else:
            dt = float(self.times[1] - self.times[0])
        return float((self.peak_dram_c > self.limit_c).sum()) * dt

    def as_dict(self) -> dict:
        """JSON-ready summary (the per-step arrays are elided)."""
        return {
            "controlled": self.controlled,
            "steps": self.steps,
            "max_peak_dram_c": self.max_peak_dram_c,
            "within_limit": self.within_limit,
            "time_over_limit_s": self.time_over_limit_s,
            "throttle_events": len(self.throttle_events),
            "energy_j": self.energy_j,
            "work_flops": self.work_flops,
            "phase_configs": [
                (name, cfg.label()) for name, cfg in self.phase_configs
            ],
        }


class ThermalGovernor:
    """Hybrid feedforward/feedback thermal control of a phase schedule.

    Parameters
    ----------
    model:
        Node model predicting each operating point's power breakdown.
    thermal:
        Thermal model providing the floorplan power-map placement and
        the grid. Its steady-state solver prices feedforward decisions;
        its closed-form windows integrate the run.
    limit_c / margin_c:
        The DRAM refresh limit and the feedforward safety margin below
        it that steady-state predictions must clear.
    feedback_margin_c:
        Feedback threshold below the limit; a simulated peak above
        ``limit_c - feedback_margin_c`` triggers a mid-phase notch-down.
    dt / control_interval_s:
        Integration step, seconds, and how often feedback control runs
        (one closed-form window of ``control_every`` steps per tick).

    The DVFS ladder and CU-gating granularity come from a
    :class:`~repro.core.governor.DvfsGovernor` over *model*: the thermal
    governor walks the same ladder the energy governor does.

    The governor memoizes per
    (:func:`~repro.workloads.kernels.profile_key`, config), the profile's
    name and every value the model reads of it: steady DRAM peaks,
    feedforward caps, and each window's modal fixed point with its node
    power and throughput. The memos assume *model* and *thermal* do not
    change under it.
    """

    def __init__(
        self,
        model: NodeModel | None = None,
        thermal: ThermalModel | None = None,
        limit_c: float = DRAM_LIMIT_C,
        margin_c: float = 2.0,
        feedback_margin_c: float = 1.0,
        dt: float = 0.01,
        control_interval_s: float = 0.05,
    ):
        if not math.isfinite(limit_c):
            raise ValueError(f"limit_c must be finite, got {limit_c!r}")
        for name, margin in (
            ("margin_c", margin_c), ("feedback_margin_c", feedback_margin_c)
        ):
            if not 0 <= margin < math.inf:
                raise ValueError(
                    f"{name} must be finite and non-negative, got {margin!r}"
                )
        if not _finite_positive(dt):
            raise ValueError(f"dt must be finite and positive, got {dt!r}")
        if not _finite_positive(control_interval_s):
            raise ValueError(
                f"control_interval_s must be finite and positive, "
                f"got {control_interval_s!r}"
            )
        self.model = model or NodeModel()
        self.thermal = thermal or ThermalModel()
        self.governor = DvfsGovernor(model=self.model)
        self.limit_c = float(limit_c)
        self.margin_c = float(margin_c)
        self.feedback_margin_c = float(feedback_margin_c)
        self.dt = float(dt)
        self.control_every = self.steps_for(control_interval_s)
        self._steady_peak_cache: dict[tuple, float] = {}
        self._cap_cache: dict[tuple, EHPConfig] = {}
        self._window_cache: dict[tuple, tuple[np.ndarray, float, float]] = {}

    def steps_for(self, duration_s: float) -> int:
        """Whole steps of :attr:`dt` covering *duration_s* (at least
        one)."""
        return max(1, round(float(duration_s) / self.dt))

    # ------------------------------------------------------------------
    # Feedforward: steady-state-predicted caps
    # ------------------------------------------------------------------
    def steady_peak(self, profile: KernelProfile, config: EHPConfig) -> float:
        """Memoized steady-state DRAM peak for (profile, config)."""
        key = (profile_key(profile), config)
        peak = self._steady_peak_cache.get(key)
        if peak is None:
            power = self.model.evaluate(profile, config).power
            peak = self.thermal.analyze(power).peak_dram_c
            self._steady_peak_cache[key] = peak
        return peak

    def _ladder_down(self, freq: float) -> list[float]:
        """Ladder frequencies at or below *freq*, highest first."""
        return [f for f in reversed(self.governor.freq_ladder) if f <= freq]

    def _gate_down(self, config: EHPConfig) -> EHPConfig | None:
        """Next CU-gated configuration, or ``None`` at the floor."""
        step = self.governor.cu_gate_step
        n = config.n_cus - step
        while n > 0 and n % config.n_gpu_chiplets:
            n -= 1
        if n <= 0:
            return None
        return config.with_axes(n_cus=n)

    def _next_down(self, config: EHPConfig) -> EHPConfig | None:
        """One back-off step: next ladder notch, else gate a CU group."""
        for freq in self._ladder_down(config.gpu_freq):
            if freq < config.gpu_freq:
                return config.with_axes(gpu_freq=freq)
        return self._gate_down(config)

    def _ladder_peaks(
        self, profile: KernelProfile, ladder: list[EHPConfig]
    ) -> list[float]:
        """Steady DRAM peaks of *ladder*, points that differ only in GPU
        frequency: one :meth:`NodeModel.evaluate_arrays` call and one
        :meth:`ThermalGrid.solve_batch`, each peak bit-identical to
        :meth:`steady_peak`'s and memoized with it."""
        top = ladder[0]
        power = self.model.evaluate_arrays(
            profile, top.n_cus, np.array([c.gpu_freq for c in ladder]),
            top.bandwidth,
        ).power
        batch = self.thermal.grid.solve_batch(
            self.thermal.build_power_maps(power)
        )
        peaks = batch.peaks("dram").tolist()
        pkey = profile_key(profile)
        for cand, peak in zip(ladder, peaks):
            self._steady_peak_cache.setdefault((pkey, cand), peak)
        return peaks

    def thermal_cap(
        self, profile: KernelProfile, config: EHPConfig
    ) -> EHPConfig:
        """Highest ladder point (never above *config*) that is
        steady-state safe for *profile*, gating CUs below the floor.

        Memoized per (profile, config). The ladder points at or below
        *config* are priced together in one batch; CU gating below the
        floor prices one point per steady solve.
        """
        key = (profile_key(profile), config)
        cached = self._cap_cache.get(key)
        if cached is not None:
            return cached
        target = self.limit_c - self.margin_c
        ladder = [
            config.with_axes(gpu_freq=freq)
            for freq in self._ladder_down(config.gpu_freq) or [config.gpu_freq]
        ]
        for cand, peak in zip(ladder, self._ladder_peaks(profile, ladder)):
            if peak <= target:
                break
        else:
            # Ladder floor still too hot: gate CU groups until safe or
            # out of groups (then run the coolest reachable point).
            while self.steady_peak(profile, cand) > target:
                lower = self._gate_down(cand)
                if lower is None:
                    break
                cand = lower
        self._cap_cache[key] = cand
        return cand

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _window_power(
        self, profile: KernelProfile, config: EHPConfig
    ) -> tuple[np.ndarray, float, float]:
        """The modal fixed point of *config*'s power map, with its node
        power and throughput, memoized per (profile, config). The loop
        only reads the fixed point, so the memo hands out one array."""
        key = (profile_key(profile), config)
        window = self._window_cache.get(key)
        if window is None:
            ev = self.model.evaluate(profile, config)
            steady = self.thermal.grid.steady_modes(
                self.thermal.build_power_maps(ev.power)
            )
            window = steady, float(ev.node_power), float(ev.performance)
            self._window_cache[key] = window
        return window

    def run(
        self,
        phases: Sequence[ThermalPhase],
        config: EHPConfig,
        controlled: bool = True,
        temps: np.ndarray | None = None,
    ) -> ThermalLoopResult:
        """Integrate *phases* from ambient (or *temps*) under control.

        The state stays in the grid's modal coordinates for the whole
        run: *temps* is transformed once, each window's power map once
        per (profile, config), and every control tick is one closed-form
        window (:meth:`~repro.thermal.grid.ThermalGrid.advance`) that
        transforms back only the DRAM layer. ``to_modes`` and
        ``steady_modes`` check the state as they build it, and a window
        of finite states is finite, so the ticks skip ``advance``'s
        input checks.
        """
        if not phases:
            raise ValueError("phase schedule must not be empty")
        grid = self.thermal.grid
        dt = self.dt
        if temps is None:
            temps = np.full(
                (grid.stack.n_layers, grid.ny, grid.nx), grid.stack.ambient_c
            )
        modes = grid.to_modes(temps)
        dram = self.thermal.stack.layer_index("dram")
        peak = float(np.asarray(temps, dtype=float)[dram].max())
        feedback_at = self.limit_c - self.feedback_margin_c

        times: list[float] = []
        peaks: list[float] = []
        events: list[ThrottleEvent] = []
        phase_configs: list[tuple[str, EHPConfig]] = []
        energy = 0.0
        work = 0.0
        t = 0.0
        with obs_trace.span(
            "thermal.loop", phases=len(phases), controlled=controlled,
        ), obs_metrics.timed("thermal.loop_seconds"):
            for phase in phases:
                if controlled:
                    active = self.thermal_cap(phase.profile, config)
                    if active != config:
                        events.append(ThrottleEvent(
                            time_s=t,
                            phase=phase.profile.name,
                            kind="feedforward",
                            peak_dram_c=peak,
                            gpu_freq=active.gpu_freq,
                            n_cus=active.n_cus,
                        ))
                else:
                    active = config
                steady, node_power, flops = self._window_power(
                    phase.profile, active
                )
                remaining = self.steps_for(phase.duration_s)
                while remaining > 0:
                    n = min(self.control_every, remaining)
                    modes, dram_c = grid._advance(
                        modes, steady, dt, n, dram
                    )
                    for step_peak in dram_c.max(axis=(1, 2)).tolist():
                        t += dt
                        times.append(t)
                        peaks.append(step_peak)
                    peak = peaks[-1]
                    remaining -= n
                    energy += node_power * n * dt
                    work += flops * n * dt
                    if controlled and remaining > 0 and peak > feedback_at:
                        lower = self._next_down(active)
                        if lower is not None:
                            active = lower
                            events.append(ThrottleEvent(
                                time_s=t,
                                phase=phase.profile.name,
                                kind="feedback",
                                peak_dram_c=peak,
                                gpu_freq=active.gpu_freq,
                                n_cus=active.n_cus,
                            ))
                            steady, node_power, flops = self._window_power(
                                phase.profile, active
                            )
                phase_configs.append((phase.profile.name, active))
        obs_metrics.inc("thermal.steps", len(times))
        obs_metrics.inc("thermal.throttle_events", len(events))
        obs_metrics.set_gauge("thermal.peak_c", max(peaks))
        return ThermalLoopResult(
            controlled=controlled,
            times=np.asarray(times),
            peak_dram_c=np.asarray(peaks),
            throttle_events=tuple(events),
            phase_configs=tuple(phase_configs),
            energy_j=energy,
            work_flops=work,
            limit_c=self.limit_c,
        )

    def replay(
        self,
        phases: Sequence[ThermalPhase],
        config: EHPConfig,
        temps: np.ndarray | None = None,
    ) -> ThermalLoopResult:
        """The uncontrolled baseline: same schedule, no throttling."""
        return self.run(phases, config, controlled=False, temps=temps)
