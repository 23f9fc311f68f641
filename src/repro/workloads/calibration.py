"""Profile calibration against the paper's published optima.

The paper's kernel profiles come from hardware measurement; ours must be
reconstructed from the published results. This module implements that
reconstruction as an optimization problem: for each application, search
the profile parameters so that

1. the application's best feasible configuration on the paper's
   exploration grid equals its Table II configuration,
2. its performance benefit over the best-mean configuration matches the
   Table II percentage,
3. the best-mean configuration itself stays feasible (so the joint
   exploration can select it), and
4. category-level shape constraints hold (e.g., MaxFlops must be
   bandwidth-insensitive, per Fig. 4).

The search uses :func:`scipy.optimize.differential_evolution` over seven
profile parameters; one objective evaluation sweeps the full 1617-point
grid through the vectorized node model, so a fit takes seconds.

The fitted values are baked into :mod:`repro.workloads.catalog`; this
module stays in the library so the calibration is reproducible
(``python -m repro.workloads.calibration`` re-runs it and prints the
resulting catalog parameters).

The module also holds the Section VI cross-checks of the analytic model
against the trace simulator (:func:`trace_crosscheck`,
:func:`chiplet_penalty_table`). They run the simulator directly: no
sweep repeats a (config, trace) pair, so there is nothing to memoize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import differential_evolution, minimize

from repro.core.config import PAPER_BEST_MEAN, DesignSpace, EHPConfig
from repro.core.node import NodeModel
from repro.sim.apu_sim import ApuSimConfig, ApuSimulator
from repro.util.units import MHZ, TB
from repro.workloads.catalog import PAPER_TABLE2, CalibrationTarget
from repro.workloads.kernels import KernelCategory, KernelProfile
from repro.workloads.traces import MemoryTrace, TraceGenerator

__all__ = [
    "PAPER_TABLE2",
    "CalibrationTarget",
    "FitReport",
    "TraceCrosscheckRow",
    "ChipletPenaltyRow",
    "DEFAULT_CHIPLET_PENALTIES_NS",
    "default_calibration_trace",
    "fit_profile",
    "fit_all",
    "joint_calibrate",
    "trace_crosscheck",
    "chiplet_penalty_table",
]

DEFAULT_TRACE_SEED = 42
DEFAULT_TRACE_ACCESSES = 50_000

# Free parameters, their profile field names, and search bounds.
_PARAM_BOUNDS: tuple[tuple[str, float, float], ...] = (
    ("bytes_per_flop", 0.001, 2.5),
    ("parallel_fraction", 0.30, 1.0),
    ("cache_hit_rate", 0.05, 0.90),
    ("thrash_pressure", 0.0, 1.5),
    ("latency_sensitivity", 0.005, 0.90),
    ("mlp_per_cu", 4.0, 96.0),
    ("cu_utilization", 0.20, 0.98),
)


@dataclass(frozen=True)
class FitReport:
    """Outcome of one profile fit."""

    profile: KernelProfile
    loss: float
    achieved_config: EHPConfig
    achieved_benefit_pct: float
    target: CalibrationTarget
    x: tuple = ()

    @property
    def config_matches(self) -> bool:
        """Did the fit land the argmax exactly on the Table II config?"""
        t = self.target.config
        a = self.achieved_config
        return (
            a.n_cus == t.n_cus
            and a.gpu_freq == t.gpu_freq
            and a.bandwidth == t.bandwidth
        )


class _Objective:
    """Callable loss over the seven free parameters for one application."""

    def __init__(
        self,
        base: KernelProfile,
        target: CalibrationTarget,
        space: DesignSpace,
        model: NodeModel,
        caps: Mapping[int, float] | None = None,
    ):
        self.base = base
        self.target = target
        self.space = space
        self.model = model
        self.cus, self.freqs, self.bws = space.grid_arrays()
        self.target_index = self._flat_index(target.config)
        self.mean_index = self._flat_index(PAPER_BEST_MEAN)
        # Optional joint-calibration caps: flat grid index -> maximum
        # allowed relative edge over the best-mean configuration. Set by
        # the joint pass so that 320/1000/3 wins the cross-application
        # average (see joint_calibrate).
        self.caps = dict(caps or {})
        self.caps.pop(self.target_index, None)

    def _flat_index(self, config: EHPConfig) -> int:
        i_cu = list(self.space.cu_counts).index(config.n_cus)
        i_f = list(self.space.frequencies).index(config.gpu_freq)
        i_b = list(self.space.bandwidths).index(config.bandwidth)
        n_f, n_b = len(self.space.frequencies), len(self.space.bandwidths)
        return (i_cu * n_f + i_f) * n_b + i_b

    def profile_from(self, x: Sequence[float]) -> KernelProfile:
        """Materialize a candidate profile from a parameter vector.

        Values are clipped to the search bounds so that unconstrained
        local polish steps remain valid profiles.
        """
        changes = {
            name: float(min(hi, max(lo, v)))
            for (name, lo, hi), v in zip(_PARAM_BOUNDS, x)
        }
        return self.base.with_overrides(**changes)

    def _argmax_distance(self, best_index: int) -> float:
        """Normalized grid distance between the argmax and the target."""
        n_f, n_b = len(self.space.frequencies), len(self.space.bandwidths)

        def split(i: int) -> tuple[int, int, int]:
            i_cu, rem = divmod(i, n_f * n_b)
            i_f, i_b = divmod(rem, n_b)
            return i_cu, i_f, i_b

        a = split(best_index)
        t = split(self.target_index)
        sizes = (len(self.space.cu_counts), n_f, n_b)
        return sum(abs(x - y) / s for x, y, s in zip(a, t, sizes))

    def __call__(self, x: Sequence[float]) -> float:
        profile = self.profile_from(x)
        ev = self.model.evaluate_arrays(profile, self.cus, self.freqs, self.bws)
        perf = np.asarray(ev.performance, dtype=float)
        power = np.asarray(ev.node_power, dtype=float)
        feasible = power <= self.space.power_budget

        loss = 0.0
        budget = self.space.power_budget
        # (3) the best-mean point must be feasible for this application.
        if not feasible[self.mean_index]:
            loss += 5.0 + (power[self.mean_index] - budget) / budget
        # (1) the target must be feasible and be the feasible argmax.
        if not feasible[self.target_index]:
            loss += 10.0 + (power[self.target_index] - budget) / budget
            return loss
        masked = np.where(feasible, perf, -np.inf)
        best_index = int(np.argmax(masked))
        perf_target = perf[self.target_index]
        loss += 30.0 * float((perf[best_index] - perf_target) / perf[best_index])
        if best_index != self.target_index:
            loss += 1.0 + 1.0 * self._argmax_distance(best_index)
        # (2) match the Table II benefit over the best-mean config.
        benefit = (perf_target / perf[self.mean_index] - 1.0) * 100.0
        loss += 3.0 * abs(benefit - self.target.benefit_pct) / 100.0
        # (2b) joint-calibration caps: keep this application's edge over
        # the best-mean configuration below the negotiated cap at each
        # contested grid point, so the joint average lands on 320/1000/3.
        if self.caps:
            perf_mean = perf[self.mean_index]
            for ci, cap in self.caps.items():
                edge = float(perf[ci] / perf_mean - 1.0)
                loss += 8.0 * max(0.0, edge - cap)
        # (4) category shape constraints.
        loss += self._shape_penalty(profile)
        # Mild regularization toward the category-informed base profile
        # keeps fitted parameters physically sensible when the data does
        # not constrain them.
        loss += 0.01 * self._regularizer(x)
        return float(loss)

    def _regularizer(self, x: Sequence[float]) -> float:
        dev = 0.0
        for (name, lo, hi), value in zip(_PARAM_BOUNDS, x):
            base_value = getattr(self.base, name)
            dev += ((value - base_value) / (hi - lo)) ** 2
        return dev / len(_PARAM_BOUNDS)

    def _shape_penalty(self, profile: KernelProfile) -> float:
        base = PAPER_BEST_MEAN
        if profile.category is KernelCategory.COMPUTE_INTENSIVE:
            # Fig. 4: bandwidth curves coincide for compute-bound kernels.
            lo = self.model.evaluate(profile, base.with_axes(bandwidth=1 * TB))
            hi = self.model.evaluate(profile, base.with_axes(bandwidth=7 * TB))
            ratio = float(hi.performance / lo.performance)
            return 5.0 * max(0.0, ratio - 1.02)
        if profile.category is KernelCategory.MEMORY_INTENSIVE:
            # Fig. 6: at fixed bandwidth, pushing compute far past the knee
            # must *lose* performance (cache thrashing / contention).
            knee = self.model.evaluate(profile, self.target.config)
            over = self.model.evaluate(
                profile,
                self.target.config.with_axes(n_cus=384, gpu_freq=1500 * MHZ),
            )
            ratio = float(over.performance / knee.performance)
            return 2.0 * max(0.0, ratio - 1.0)
        return 0.0


def fit_profile(
    base: KernelProfile,
    target: CalibrationTarget,
    space: DesignSpace | None = None,
    model: NodeModel | None = None,
    seed: int = 7,
    maxiter: int = 150,
    n_restarts: int = 3,
    caps: Mapping[int, float] | None = None,
) -> FitReport:
    """Fit one application's profile to its Table II row.

    Runs up to *n_restarts* differential-evolution searches from
    different seeds, each followed by a Nelder-Mead polish, and keeps the
    best. Stops early once the loss is effectively zero (exact argmax
    match and benefit within rounding).
    """
    space = space or DesignSpace()
    model = model or NodeModel()
    objective = _Objective(base, target, space, model, caps=caps)
    bounds = [(lo, hi) for (_, lo, hi) in _PARAM_BOUNDS]
    best_x, best_fun = None, np.inf
    for attempt in range(n_restarts):
        result = differential_evolution(
            objective,
            bounds=bounds,
            seed=seed + 1000 * attempt,
            maxiter=maxiter,
            tol=1e-12,
            polish=False,
            init="sobol",
            updating="deferred",
        )
        x, fun = result.x, float(result.fun)
        # Local polish: Nelder-Mead handles the piecewise-smooth regions
        # between argmax switches.
        polished = minimize(
            objective,
            x,
            method="Nelder-Mead",
            options={"maxiter": 400, "xatol": 1e-6, "fatol": 1e-10},
        )
        px = np.clip(polished.x, [b[0] for b in bounds], [b[1] for b in bounds])
        pfun = float(objective(px))
        if pfun < fun:
            x, fun = px, pfun
        if fun < best_fun:
            best_x, best_fun = x, fun
        if best_fun < 1e-4:
            break
    fitted = objective.profile_from(best_x)
    # Report the achieved argmax and benefit for the fitted profile.
    ev = model.evaluate_arrays(
        fitted, objective.cus, objective.freqs, objective.bws
    )
    perf = np.asarray(ev.performance, dtype=float)
    power = np.asarray(ev.node_power, dtype=float)
    masked = np.where(power <= space.power_budget, perf, -np.inf)
    best_index = int(np.argmax(masked))
    benefit = (
        perf[objective.target_index] / perf[objective.mean_index] - 1.0
    ) * 100.0
    return FitReport(
        profile=fitted.with_overrides(
            provenance=(
                "calibrated to Table II optimum "
                f"{target.config.label()} via repro.workloads.calibration"
            )
        ),
        loss=float(result.fun),
        achieved_config=space.config_at(best_index),
        achieved_benefit_pct=float(benefit),
        target=target,
        x=tuple(float(v) for v in best_x),
    )


def fit_all(
    bases: Mapping[str, KernelProfile],
    space: DesignSpace | None = None,
    model: NodeModel | None = None,
    seed: int = 7,
    maxiter: int = 150,
    n_restarts: int = 3,
) -> dict[str, FitReport]:
    """Fit every application in *bases* against :data:`PAPER_TABLE2`."""
    reports = {}
    for name, base in bases.items():
        if name not in PAPER_TABLE2:
            raise KeyError(f"no Table II target for {name!r}")
        reports[name] = fit_profile(
            base,
            PAPER_TABLE2[name],
            space,
            model,
            seed=seed,
            maxiter=maxiter,
            n_restarts=n_restarts,
        )
    return reports


def _polish_report(
    objective: _Objective,
    x0,
    target: CalibrationTarget,
    space: DesignSpace,
    model: NodeModel,
    maxiter: int = 600,
) -> FitReport:
    """Local Nelder-Mead refinement of one application from *x0*."""
    polished = minimize(
        objective,
        np.asarray(x0, dtype=float),
        method="Nelder-Mead",
        options={"maxiter": maxiter, "xatol": 1e-7, "fatol": 1e-11},
    )
    x = polished.x
    fitted = objective.profile_from(x)
    ev = model.evaluate_arrays(
        fitted, objective.cus, objective.freqs, objective.bws
    )
    perf = np.asarray(ev.performance, dtype=float)
    power = np.asarray(ev.node_power, dtype=float)
    masked = np.where(power <= space.power_budget, perf, -np.inf)
    best_index = int(np.argmax(masked))
    benefit = (
        perf[objective.target_index] / perf[objective.mean_index] - 1.0
    ) * 100.0
    return FitReport(
        profile=fitted,
        loss=float(objective(x)),
        achieved_config=space.config_at(best_index),
        achieved_benefit_pct=float(benefit),
        target=target,
        x=tuple(float(v) for v in x),
    )


def joint_calibrate(
    bases: Mapping[str, KernelProfile],
    space: DesignSpace | None = None,
    model: NodeModel | None = None,
    seed: int = 7,
    maxiter: int = 150,
    rounds: int = 10,
    verbose: bool = True,
) -> dict[str, FitReport]:
    """Two-stage calibration: per-application fits, then a joint pass.

    Stage 1 fits each application independently (argmax + benefit).
    Stage 2 checks the *joint* geometric-mean surface: wherever some
    configuration would out-average the paper's best-mean point
    (320/1000/3), the required reduction is split across the
    applications with positive edges there (proportionally), becoming
    per-application caps; each application is then locally re-polished
    under its caps. Iterate until 320/1000/3 is the joint argmax.
    """
    space = space or DesignSpace()
    model = model or NodeModel()
    reports = fit_all(bases, space, model, seed=seed, maxiter=maxiter)
    names = list(reports)
    caps: dict[str, dict[int, float]] = {n: {} for n in names}

    objective_of = {
        n: _Objective(bases[n], PAPER_TABLE2[n], space, model)
        for n in names
    }
    mean_index = objective_of[names[0]].mean_index
    cus, freqs, bws = space.grid_arrays()

    for round_no in range(rounds):
        perf = {}
        feas = {}
        for n in names:
            ev = model.evaluate_arrays(reports[n].profile, cus, freqs, bws)
            p = np.asarray(ev.performance, dtype=float)
            perf[n] = p
            feas[n] = np.asarray(ev.node_power, dtype=float) <= space.power_budget
        all_feasible = np.logical_and.reduce([feas[n] for n in names])
        log_ratio = np.zeros_like(perf[names[0]])
        for n in names:
            log_ratio += np.log(perf[n] / perf[n][mean_index])
        log_ratio /= len(names)
        contested = np.where(all_feasible & (log_ratio > 0))[0]
        contested = contested[contested != mean_index]
        if contested.size == 0:
            if verbose:
                print(f"[joint] converged after round {round_no}")
            break
        if verbose:
            worst = int(contested[np.argmax(log_ratio[contested])])
            print(
                f"[joint] round {round_no}: {contested.size} contested "
                f"configs, worst {space.config_at(worst).label()} "
                f"(+{100 * (np.exp(log_ratio[worst]) - 1.0):.1f}%)"
            )
        # Negotiate caps on the worst offenders this round.
        order = contested[np.argsort(log_ratio[contested])[::-1][:60]]
        margin = 0.015
        for ci in order:
            edges = {
                n: float(perf[n][ci] / perf[n][mean_index] - 1.0)
                for n in names
            }
            need = float(log_ratio[ci]) * len(names) + margin * len(names)
            positive = {n: e for n, e in edges.items() if e > 0.0}
            total_pos = sum(positive.values())
            if total_pos <= 0:
                continue
            for n, e in positive.items():
                reduction = need * (e / total_pos)
                new_edge = float(np.expm1(np.log1p(e) - reduction))
                existing = caps[n].get(int(ci))
                cap = new_edge if existing is None else min(existing, new_edge)
                caps[n][int(ci)] = cap
        # Re-polish every capped application locally. A polish is only
        # accepted when it preserves the hard per-application results
        # (argmax on the Table II config) — the joint pass trades edge
        # at contested configs, never Table II fidelity.
        for n in names:
            if not caps[n]:
                continue
            obj = _Objective(
                bases[n], PAPER_TABLE2[n], space, model, caps=caps[n]
            )
            candidate = _polish_report(
                obj, reports[n].x, PAPER_TABLE2[n], space, model
            )
            if candidate.config_matches or not reports[n].config_matches:
                reports[n] = candidate
    return reports


def default_calibration_trace(
    name: str = "CoMD",
    n_accesses: int = DEFAULT_TRACE_ACCESSES,
    seed: int = DEFAULT_TRACE_SEED,
) -> MemoryTrace:
    """The reference trace shared by the perf gates and cross-checks.

    One deterministic CoMD trace (the paper's headline memory-intensive
    kernel) at a fixed seed, so the benchmark suite, the performance
    gate and :func:`trace_crosscheck` all measure the same workload.
    """
    from repro.workloads.catalog import get_application

    profile = get_application(name)
    return TraceGenerator(profile, seed=seed).generate(n_accesses)


@dataclass(frozen=True)
class TraceCrosscheckRow:
    """One application's simulator-vs-analytic comparison."""

    name: str
    sim_flops_per_cu: float
    analytic_flops_per_cu: float
    sim_dram_fraction: float

    @property
    def ratio(self) -> float:
        """Simulated over analytic per-CU FLOP rate."""
        if self.analytic_flops_per_cu <= 0:
            return float("inf")
        return self.sim_flops_per_cu / self.analytic_flops_per_cu


def trace_crosscheck(
    names: Sequence[str] | None = None,
    sim_config: ApuSimConfig | None = None,
    model: NodeModel | None = None,
    n_accesses: int = 20_000,
    seed: int = DEFAULT_TRACE_SEED,
) -> list[TraceCrosscheckRow]:
    """Cross-check the trace simulator against the analytic model.

    For each application this replays a synthetic trace with the
    profile's locality statistics through the scaled APU simulator and
    compares its achieved per-CU FLOP rate with the analytic model's
    prediction at the paper's best-mean configuration — the Section VI
    role the paper gives gem5. Both sides are normalized per CU because
    the simulator runs a scaled-down EHP. Both sides are evaluated
    directly, once per application.
    """
    from repro.workloads.catalog import APPLICATIONS, get_application

    model = model or NodeModel()
    sim_config = sim_config or ApuSimConfig()
    best = PAPER_BEST_MEAN
    rows = []
    for name in list(names) if names is not None else list(APPLICATIONS):
        profile = get_application(name)
        trace = TraceGenerator(profile, seed=seed).generate(n_accesses)
        sim = ApuSimulator(sim_config).run(trace)
        ev = model.evaluate_arrays(
            profile, best.n_cus, best.gpu_freq, best.bandwidth
        )
        rows.append(
            TraceCrosscheckRow(
                name=name,
                sim_flops_per_cu=sim.flops_rate / sim_config.n_cus,
                analytic_flops_per_cu=(
                    float(np.asarray(ev.performance)) / best.n_cus
                ),
                sim_dram_fraction=sim.dram_fraction,
            )
        )
    return rows


@dataclass(frozen=True)
class ChipletPenaltyRow:
    """One (application, penalty) point of the Fig. 7-style table."""

    name: str
    penalty_ns: float
    sim_relative: float
    analytic_relative: float

    @property
    def agreement(self) -> float:
        """Simulated over analytic relative performance (1.0 = the two
        substrates predict the same degradation)."""
        if self.analytic_relative <= 0:
            return float("inf")
        return self.sim_relative / self.analytic_relative


DEFAULT_CHIPLET_PENALTIES_NS = (0.0, 10.0, 25.0, 50.0, 100.0)
"""Cross-chiplet latency penalties swept by the Fig. 7-style table."""


def chiplet_penalty_table(
    penalties_ns: Sequence[float] = DEFAULT_CHIPLET_PENALTIES_NS,
    names: Sequence[str] | None = None,
    sim_config: ApuSimConfig | None = None,
    model: NodeModel | None = None,
    n_accesses: int = 20_000,
    seed: int = DEFAULT_TRACE_SEED,
) -> list[ChipletPenaltyRow]:
    """Fig. 7-style chiplet-penalty table, simulated vs analytic.

    Sweeps ``chiplet_extra_latency`` through *both* substrates — the
    trace-driven APU simulator (``ApuSimConfig.chiplet_extra_latency``)
    and the analytic node model (``extra_latency``) — and reports each
    application's performance at every penalty relative to its own
    zero-penalty point. The paper's Fig. 7 makes the same comparison to
    argue the chiplet organization costs little; the ``agreement``
    column is the cross-substrate sanity check.

    The zero-penalty point is simulated once per application and
    serves as both the base and the 0 ns row.
    """
    import dataclasses

    from repro.workloads.catalog import APPLICATIONS, get_application

    if any(p < 0 for p in penalties_ns):
        raise ValueError("penalties must be non-negative")
    model = model or NodeModel()
    sim_config = sim_config or ApuSimConfig()
    best = PAPER_BEST_MEAN
    rows: list[ChipletPenaltyRow] = []
    for name in list(names) if names is not None else list(APPLICATIONS):
        profile = get_application(name)
        trace = TraceGenerator(profile, seed=seed).generate(n_accesses)

        def _point(penalty_ns: float) -> tuple[float, float]:
            cfg = dataclasses.replace(
                sim_config, chiplet_extra_latency=penalty_ns * 1e-9
            )
            sim = ApuSimulator(cfg).run(trace)
            ev = model.evaluate_arrays(
                profile,
                best.n_cus,
                best.gpu_freq,
                best.bandwidth,
                extra_latency=penalty_ns * 1e-9,
            )
            return sim.flops_rate, float(np.asarray(ev.performance))

        base = _point(0.0)
        sim_base, analytic_base = base
        for penalty in penalties_ns:
            sim_perf, analytic_perf = (
                base if penalty == 0.0 else _point(float(penalty))
            )
            rows.append(
                ChipletPenaltyRow(
                    name=name,
                    penalty_ns=float(penalty),
                    sim_relative=(
                        sim_perf / sim_base if sim_base > 0 else 0.0
                    ),
                    analytic_relative=(
                        analytic_perf / analytic_base
                        if analytic_base > 0
                        else 0.0
                    ),
                )
            )
    return rows


def _print_report(name: str, report: FitReport) -> None:
    profile = report.profile
    status = "OK " if report.config_matches else "MISS"
    print(
        f"[{status}] {name}: loss={report.loss:.4f} "
        f"argmax={report.achieved_config.label()} "
        f"target={report.target.config.label()} "
        f"benefit={report.achieved_benefit_pct:.1f}% "
        f"(paper {report.target.benefit_pct}%)",
        flush=True,
    )
    # Full-precision repr: the optima sit on sub-watt feasibility
    # boundaries, so rounded values would not reproduce the fit.
    for field_name, _, _ in _PARAM_BOUNDS:
        print(f"        {field_name}={getattr(profile, field_name)!r},")


def _main() -> None:  # pragma: no cover - developer entry point
    import sys

    from repro.workloads.catalog import APPLICATIONS

    if "--joint" in sys.argv:
        reports = joint_calibrate(APPLICATIONS)
        for name, report in reports.items():
            _print_report(name, report)
        return
    for name, base in APPLICATIONS.items():
        report = fit_profile(
            base, PAPER_TABLE2[name], seed=7, maxiter=120, n_restarts=2
        )
        _print_report(name, report)


if __name__ == "__main__":  # pragma: no cover
    _main()
