"""The canonical registry of experiment drivers.

One name per paper artifact (plus the repo's own studies), each mapping
to a zero-argument ``run_*`` callable returning an
:class:`~repro.experiments.runner.ExperimentResult`. The CLI
(``python -m repro``) and the serving layer's experiment requests both
resolve names here, so the set of artifacts and their deterministic
ordering live in exactly one place.
"""

from __future__ import annotations

from typing import Callable

from repro.experiments.ablations import (
    run_contention_ablation,
    run_latency_hiding_ablation,
    run_memory_management_ablation,
)
from repro.experiments.chiplet_traffic import run_fig7
from repro.experiments.dse_summary import run_dse_summary
from repro.experiments.exascale_target import run_fig14
from repro.experiments.external_memory import run_fig9, run_fig9_managed
from repro.experiments.kernel_sweeps import run_fig4, run_fig5, run_fig6
from repro.experiments.miss_sensitivity import run_fig8, run_fig8_measured
from repro.experiments.power_opts import run_fig12, run_fig13
from repro.experiments.reconfiguration import run_table2
from repro.experiments.runner import ExperimentResult
from repro.experiments.runtime_studies import (
    run_checkpoint_study,
    run_governor_study,
    run_hsa_dispatch_study,
)
from repro.experiments.sensitivity import run_sensitivity_study
from repro.experiments.table1 import run_table1
from repro.experiments.thermal_eval import run_fig10, run_fig11

__all__ = ["EXPERIMENTS", "experiment_names", "get_experiment"]

EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "table1": run_table1,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig8-measured": run_fig8_measured,
    "fig9": run_fig9,
    "fig9-managed": run_fig9_managed,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "table2": run_table2,
    "dse": run_dse_summary,
    "ablation-latency-hiding": run_latency_hiding_ablation,
    "ablation-contention": run_contention_ablation,
    "ablation-memory-management": run_memory_management_ablation,
    "x3a-governor": run_governor_study,
    "x3b-checkpoint": run_checkpoint_study,
    "x3c-hsa-dispatch": run_hsa_dispatch_study,
    "x4-sensitivity": run_sensitivity_study,
}
"""Insertion order is the canonical artifact order."""


def experiment_names() -> list[str]:
    """All registered artifact names, canonical order."""
    return list(EXPERIMENTS)


def get_experiment(name: str) -> Callable[[], ExperimentResult]:
    """Resolve one artifact name; raises ``KeyError`` with the catalog."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
        ) from None
