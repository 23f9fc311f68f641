"""Shared experiment plumbing.

An :class:`ExperimentResult` pairs the raw data a test can assert on
with a rendered table the benchmark harness prints — the same rows or
series the paper's figure/table reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.config import PAPER_BEST_MEAN, EHPConfig
from repro.core.node import NodeEvaluation, NodeModel
from repro.workloads.catalog import APPLICATIONS
from repro.workloads.kernels import KernelProfile, ProfileBatch

__all__ = [
    "ExperimentResult",
    "default_model",
    "all_profiles",
    "evaluate_at_own_share",
    "reference_config",
]


@dataclass(frozen=True)
class ExperimentResult:
    """One experiment's outcome.

    Attributes
    ----------
    experiment_id:
        Paper artifact id (e.g., ``"fig8"``, ``"table2"``).
    title:
        Human-readable description.
    rendered:
        The printable reproduction of the paper's rows/series.
    data:
        Raw values keyed by series/application for programmatic checks.
    notes:
        Caveats and substitutions relevant to this artifact.
    """

    experiment_id: str
    title: str
    rendered: str
    data: Mapping[str, Any] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        """Header plus the table/series text."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.notes:
            lines.append(f"-- {self.notes}")
        lines.append(self.rendered)
        return "\n".join(lines)


def default_model() -> NodeModel:
    """The standard calibrated node model."""
    return NodeModel()


def all_profiles() -> list[KernelProfile]:
    """The eight Table I applications, catalog order."""
    return list(APPLICATIONS.values())


def evaluate_at_own_share(
    model: NodeModel, batch: ProfileBatch, config: EHPConfig
) -> NodeEvaluation:
    """Every profile of *batch* on *config* in one call, each with its
    own ``ext_memory_fraction`` as the off-package traffic share (the
    power studies' convention). Outputs have shape ``(P, 1)``."""
    return model.evaluate_arrays(
        batch,
        config.n_cus,
        config.gpu_freq,
        config.bandwidth,
        ext_fraction=batch.ext_memory_fraction,
    )


def reference_config() -> EHPConfig:
    """The paper's best-mean configuration (all figures normalize to it)."""
    return PAPER_BEST_MEAN
