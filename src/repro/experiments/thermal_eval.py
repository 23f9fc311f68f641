"""Figs. 10-11: thermal assessment of the EHP package.

Fig. 10: peak in-package 3D-DRAM temperature per application, for the
best-mean configuration and for each application's own best (Table II)
configuration; everything must stay below the 85 C refresh limit.

Fig. 11: the temperature map of the bottom-most DRAM die for SNAP,
best-mean vs best-per-application configuration — the per-application
point (384 CUs at 700 MHz, 5 TB/s) shifts power from the hot, dense CUs
into the cooler DRAM, lowering the peak despite higher performance.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PAPER_BEST_MEAN, EHPConfig
from repro.core.node import NodeModel
from repro.experiments.runner import ExperimentResult, all_profiles
from repro.thermal.analysis import DRAM_LIMIT_C, ThermalModel
from repro.util.tables import TextTable
from repro.util.units import MHZ, TB
from repro.workloads.catalog import PAPER_TABLE2, get_application
from repro.workloads.kernels import KernelProfile

__all__ = [
    "run_fig10",
    "run_fig11",
    "best_app_config",
    "shared_thermal_model",
]

_SHARED_THERMAL: ThermalModel | None = None


def shared_thermal_model() -> ThermalModel:
    """The process-wide :class:`ThermalModel` the drivers share.

    The modal grid operator (DCT basis and per-mode pivots) and the
    rasterized floorplan masks depend only on the (fixed) default
    geometry, so one instance serves every driver; each caller then pays
    only the transforms and the per-mode sweep. Pass an explicit
    ``thermal=`` to a driver to opt out (e.g. for a non-default
    floorplan).
    """
    global _SHARED_THERMAL
    if _SHARED_THERMAL is None:
        _SHARED_THERMAL = ThermalModel()
    return _SHARED_THERMAL


def best_app_config(app: str) -> EHPConfig:
    """The application's Table II best configuration."""
    t = PAPER_TABLE2[app]
    return EHPConfig(
        n_cus=t.n_cus, gpu_freq=t.freq_mhz * MHZ, bandwidth=t.bw_tbps * TB
    )


def _power_at(
    profile: KernelProfile, config: EHPConfig, model: NodeModel
):
    ev = model.evaluate(
        profile, config, ext_fraction=profile.ext_memory_fraction
    )
    return ev.power


def run_fig10(
    model: NodeModel | None = None,
    thermal: ThermalModel | None = None,
) -> ExperimentResult:
    """Regenerate Fig. 10's two bars per application."""
    model = model or NodeModel()
    thermal = thermal or shared_thermal_model()
    table = TextTable(
        ["Application", "Best-mean config (C)", "Best-per-app config (C)"]
    )
    # Batch all 2-per-application solves through one modal solve.
    profiles = list(all_profiles())
    powers = []
    for profile in profiles:
        powers.append(_power_at(profile, PAPER_BEST_MEAN, model))
        powers.append(
            _power_at(profile, best_app_config(profile.name), model)
        )
    reports = thermal.analyze_many(powers)
    data = {}
    for k, profile in enumerate(profiles):
        t_mean = reports[2 * k].peak_dram_c
        t_app = reports[2 * k + 1].peak_dram_c
        table.add_row([profile.name, t_mean, t_app])
        data[profile.name] = {"best_mean_c": t_mean, "best_app_c": t_app}
    return ExperimentResult(
        experiment_id="fig10",
        title="Peak in-package 3D-DRAM temperature",
        rendered=table.render(),
        data=data,
        notes=f"DRAM refresh limit {DRAM_LIMIT_C} C; ambient 50 C, air cooling",
    )


def _heatmap_summary(field: np.ndarray, n_bins: int = 8) -> str:
    """Coarse ASCII rendering of a temperature map."""
    lo, hi = float(field.min()), float(field.max())
    if hi <= lo:
        return "(uniform)"
    glyphs = " .:-=+*#%@"
    scale = (len(glyphs) - 1) / (hi - lo)
    ny, nx = field.shape
    step_y = max(1, ny // n_bins)
    step_x = max(1, nx // (n_bins * 4))
    lines = []
    for j in range(0, ny, step_y):
        row = field[j, ::step_x]
        lines.append(
            "".join(glyphs[int((v - lo) * scale)] for v in row)
        )
    return "\n".join(lines)


def run_fig11(
    model: NodeModel | None = None,
    thermal: ThermalModel | None = None,
    app: str = "SNAP",
) -> ExperimentResult:
    """Regenerate Fig. 11: SNAP's bottom DRAM-die heat map, two configs."""
    model = model or NodeModel()
    thermal = thermal or shared_thermal_model()
    profile = get_application(app)
    sections = []
    data = {}
    for label, cfg in (
        ("best-mean", PAPER_BEST_MEAN),
        ("best-per-app", best_app_config(app)),
    ):
        ev = model.evaluate(
            profile, cfg, ext_fraction=profile.ext_memory_fraction
        )
        report = thermal.analyze(ev.power)
        heat = report.dram_heatmap()
        sections.append(
            f"{label} ({cfg.label()}): peak {report.peak_dram_c:.1f} C, "
            f"mean {report.mean_dram_c:.1f} C\n"
            + _heatmap_summary(heat)
        )
        data[label] = {
            "peak_c": report.peak_dram_c,
            "mean_c": report.mean_dram_c,
            "heatmap": heat,
        }
    return ExperimentResult(
        experiment_id="fig11",
        title=f"Heat map of the bottom-most in-package 3D-DRAM die for {app}",
        rendered="\n".join(sections),
        data=data,
        notes="hot columns sit above the GPU clusters; CPU center stays cool",
    )
