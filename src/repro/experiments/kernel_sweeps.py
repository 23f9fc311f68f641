"""Figs. 4-6: kernel performance vs ops-per-byte at several bandwidths.

The paper plots, for one application per category (MaxFlops, CoMD,
LULESH), normalized performance against the hardware ops-per-byte ratio
(CU count x frequency / bandwidth), with one curve per memory bandwidth
in {1, 3, 4, 5, 6, 7} TB/s, sweeping (a) frequency at the baseline CU
count and (b) CU count at the baseline frequency. Performance is
normalized to the best-mean configuration (320 CUs / 1 GHz / 3 TB/s).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.config import PAPER_BEST_MEAN
from repro.core.node import NodeModel
from repro.experiments.runner import ExperimentResult, default_model
from repro.util.tables import format_series
from repro.util.units import GHZ, MHZ, TB
from repro.workloads.catalog import get_application
from repro.workloads.kernels import KernelProfile

__all__ = [
    "sweep_frequency",
    "sweep_cu_count",
    "run_fig4",
    "run_fig5",
    "run_fig6",
]

BANDWIDTHS_TBPS = (1, 3, 4, 5, 6, 7)
FREQS_MHZ = tuple(range(700, 1501, 100))
CU_COUNTS = tuple(range(192, 385, 32))


def _normalizer(profile: KernelProfile, model: NodeModel) -> float:
    ev = model.evaluate(profile, PAPER_BEST_MEAN)
    return float(ev.performance)


def sweep_frequency(
    profile: KernelProfile,
    model: NodeModel | None = None,
    n_cus: int = 320,
    freqs_mhz: Sequence[int] = FREQS_MHZ,
    bandwidths_tbps: Sequence[int] = BANDWIDTHS_TBPS,
) -> dict[str, dict[str, list[float]]]:
    """Panel (a): frequency sweep at fixed CU count.

    Returns ``{"ops_per_byte": {...}, "perf": {...}}``, each keyed by
    bandwidth label, with performance normalized to the best-mean
    configuration.
    """
    model = model or default_model()
    base = _normalizer(profile, model)
    ops, perf = {}, {}
    for bw in bandwidths_tbps:
        label = f"{bw}TBps"
        freqs = np.array([f * MHZ for f in freqs_mhz])
        ev = model.evaluate_arrays(profile, float(n_cus), freqs, bw * TB)
        ops[label] = [
            n_cus * (f / GHZ) / (bw * 1000.0) * 1000.0 for f in freqs
        ]
        perf[label] = list(np.asarray(ev.performance) / base)
    return {"ops_per_byte": ops, "perf": perf}


def sweep_cu_count(
    profile: KernelProfile,
    model: NodeModel | None = None,
    freq_mhz: int = 1000,
    cu_counts: Sequence[int] = CU_COUNTS,
    bandwidths_tbps: Sequence[int] = BANDWIDTHS_TBPS,
) -> dict[str, dict[str, list[float]]]:
    """Panel (b): CU-count sweep at fixed frequency."""
    model = model or default_model()
    base = _normalizer(profile, model)
    ops, perf = {}, {}
    for bw in bandwidths_tbps:
        label = f"{bw}TBps"
        cus = np.array(cu_counts, dtype=float)
        ev = model.evaluate_arrays(profile, cus, freq_mhz * MHZ, bw * TB)
        ops[label] = [
            n * (freq_mhz / 1000.0) / (bw * 1000.0) * 1000.0
            for n in cu_counts
        ]
        perf[label] = list(np.asarray(ev.performance) / base)
    return {"ops_per_byte": ops, "perf": perf}


def _run_sweep_figure(
    fig_id: str, app_name: str, model: NodeModel | None
) -> ExperimentResult:
    profile = get_application(app_name)
    model = model or default_model()
    panel_a = sweep_frequency(profile, model)
    panel_b = sweep_cu_count(profile, model)
    text_a = format_series(
        panel_a["perf"], x_label="freq(MHz)", x_values=list(FREQS_MHZ)
    )
    text_b = format_series(
        panel_b["perf"], x_label="CUs", x_values=list(CU_COUNTS)
    )
    rendered = (
        f"(a) {app_name}: perf (normalized to best-mean config) "
        f"vs CU frequency at 320 CUs\n{text_a}\n"
        f"(b) {app_name}: perf vs CU count at 1000 MHz\n{text_b}"
    )
    return ExperimentResult(
        experiment_id=fig_id,
        title=(
            f"Performance of {app_name} as we vary the bandwidth and "
            "(a) CU frequency or (b) CU count"
        ),
        rendered=rendered,
        data={"a": panel_a, "b": panel_b},
        notes="x-axis ops/byte = CUs x GHz / (GB/s); curves per bandwidth",
    )


def run_fig4(model: NodeModel | None = None) -> ExperimentResult:
    """Fig. 4: MaxFlops (compute-intensive)."""
    return _run_sweep_figure("fig4", "MaxFlops", model)


def run_fig5(model: NodeModel | None = None) -> ExperimentResult:
    """Fig. 5: CoMD (balanced)."""
    return _run_sweep_figure("fig5", "CoMD", model)


def run_fig6(model: NodeModel | None = None) -> ExperimentResult:
    """Fig. 6: LULESH (memory-intensive)."""
    return _run_sweep_figure("fig6", "LULESH", model)
