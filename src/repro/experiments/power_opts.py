"""Figs. 12-13: power-optimization savings and the efficiency payoff.

Fig. 12: per-application node power saved by each Section V-E technique
alone (NTC, asynchronous CUs, asynchronous routers, low-power links,
DRAM traffic compression) and by all combined. Paper averages: ~14%,
4.3%, 3.0%, 1.6%, 1.7%; all together 13-27%.

Fig. 13: performance-per-watt improvement of the re-explored best-mean
configuration with optimizations (288 CUs / 1100 MHz / 3 TB/s) over the
unoptimized best-mean (320 / 1000 / 3).
"""

from __future__ import annotations

from repro.core.config import PAPER_BEST_MEAN, PAPER_BEST_MEAN_OPTIMIZED
from repro.core.node import NodeModel
from repro.core.optimizations import (
    ALL_OPTIMIZATIONS,
    PowerOptimization,
    apply_optimizations,
)
from repro.experiments.runner import (
    ExperimentResult,
    all_profiles,
    evaluate_at_own_share,
)
from repro.power.components import PowerParams
from repro.util.tables import TextTable
from repro.workloads.kernels import ProfileBatch

__all__ = ["run_fig12", "run_fig13", "OPT_LABELS"]

OPT_LABELS = {
    PowerOptimization.NTC: "NTC",
    PowerOptimization.ASYNC_CUS: "Async. CUs",
    PowerOptimization.ASYNC_ROUTERS: "Async. routers",
    PowerOptimization.LOW_POWER_LINKS: "Low-power links",
    PowerOptimization.COMPRESSION: "Compression",
}


def run_fig12(model: NodeModel | None = None) -> ExperimentResult:
    """Regenerate Fig. 12: % node power saved per optimization."""
    base_model = model or NodeModel()
    base_params = base_model.power_params
    variants: list[tuple[str, PowerParams]] = [
        (label, apply_optimizations(base_params, {opt}))
        for opt, label in OPT_LABELS.items()
    ]
    variants.append(("All", apply_optimizations(base_params, ALL_OPTIMIZATIONS)))

    batch = ProfileBatch.from_profiles(all_profiles())

    def node_power(model: NodeModel):
        return evaluate_at_own_share(model, batch, PAPER_BEST_MEAN).node_power

    baseline = node_power(base_model)
    saved = {
        name: ((1.0 - node_power(base_model.with_power_params(params))
                / baseline) * 100.0)[:, 0].tolist()
        for name, params in variants
    }
    table = TextTable(["Application"] + [name for name, _ in variants])
    data: dict[str, dict[str, float]] = {}
    for i, app in enumerate(batch.names):
        row = {name: saved[name][i] for name, _ in variants}
        table.add_row([app] + list(row.values()))
        data[app] = row
    return ExperimentResult(
        experiment_id="fig12",
        title="Power savings from optimizations",
        rendered=table.render(),
        data=data,
        notes=(
            "% of total node power saved at the best-mean config; paper "
            "averages: NTC ~14%, async CUs 4.3%, async routers 3.0%, "
            "links 1.6%, compression 1.7%; all 13-27%"
        ),
    )


def run_fig13(model: NodeModel | None = None) -> ExperimentResult:
    """Regenerate Fig. 13: perf/W gain of the optimized best-mean."""
    base_model = model or NodeModel()
    opt_params = apply_optimizations(
        base_model.power_params, ALL_OPTIMIZATIONS
    )
    opt_model = base_model.with_power_params(opt_params)
    batch = ProfileBatch.from_profiles(all_profiles())
    before = evaluate_at_own_share(base_model, batch, PAPER_BEST_MEAN)
    after = evaluate_at_own_share(opt_model, batch, PAPER_BEST_MEAN_OPTIMIZED)
    gains = (after.perf_per_watt / before.perf_per_watt - 1.0) * 100.0
    table = TextTable(["Application", "Perf-per-Watt improvement (%)"])
    data = dict(zip(batch.names, gains[:, 0].tolist()))
    for app, gain in data.items():
        table.add_row([app, gain])
    return ExperimentResult(
        experiment_id="fig13",
        title="Energy-efficiency benefit from optimizations",
        rendered=table.render(),
        data=data,
        notes=(
            "optimized best-mean (288/1100/3) with all optimizations vs "
            "unoptimized best-mean (320/1000/3)"
        ),
    )
