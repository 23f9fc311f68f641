"""X4: technology-parameter sensitivity of the node's conclusions.

The paper's projections (HBM generation scaling, V-f curves, interconnect
energies) carry uncertainty. This study perturbs each technology constant
by +/-20% and reports the swing in two headline outputs:

* geometric-mean performance across the eight applications at the
  best-mean configuration, and
* total node power there,

a tornado analysis showing which projections the conclusions actually
rest on.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.config import PAPER_BEST_MEAN
from repro.core.node import NodeModel
from repro.experiments.runner import (
    ExperimentResult,
    all_profiles,
    evaluate_at_own_share,
)
from repro.perfmodel.machine import MachineParams
from repro.power.components import PowerParams
from repro.util.tables import TextTable
from repro.workloads.kernels import ProfileBatch

__all__ = ["run_sensitivity_study"]

_MACHINE_KNOBS = (
    "mem_latency",
    "ext_bandwidth",
    "flops_per_cu_cycle",
)

_POWER_KNOBS = (
    "cu_ceff_farad",
    "cu_leakage_watt",
    "noc_energy_per_bit",
    "dram3d_energy_per_bit",
    "ext_dram_static_per_module_watt",
)


def _outputs(model: NodeModel, batch: ProfileBatch) -> tuple[float, float]:
    ev = evaluate_at_own_share(model, batch, PAPER_BEST_MEAN)
    geo = float(np.exp(np.mean(np.log(ev.performance[:, 0]))))
    return geo, float(np.mean(ev.node_power[:, 0]))


def run_sensitivity_study(delta: float = 0.20) -> ExperimentResult:
    """Tornado sensitivity of geomean perf and mean node power."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    base_machine = MachineParams()
    base_power = PowerParams()
    batch = ProfileBatch.from_profiles(all_profiles())
    base_perf, base_watt = _outputs(NodeModel(base_machine, base_power), batch)

    table = TextTable(
        ["Parameter", "Perf swing (%)", "Power swing (%)"],
        float_format="{:+.2f}",
    )
    data = {}

    def record(name: str, models: tuple[NodeModel, NodeModel]) -> None:
        lo_perf, lo_watt = _outputs(models[0], batch)
        hi_perf, hi_watt = _outputs(models[1], batch)
        perf_swing = (hi_perf - lo_perf) / base_perf * 100.0
        power_swing = (hi_watt - lo_watt) / base_watt * 100.0
        table.add_row([name, perf_swing, power_swing])
        data[name] = {
            "perf_swing_pct": perf_swing,
            "power_swing_pct": power_swing,
        }

    for knob in _MACHINE_KNOBS:
        value = getattr(base_machine, knob)
        lo = NodeModel(replace(base_machine, **{knob: value * (1 - delta)}),
                       base_power)
        hi = NodeModel(replace(base_machine, **{knob: value * (1 + delta)}),
                       base_power)
        record(knob, (lo, hi))
    for knob in _POWER_KNOBS:
        value = getattr(base_power, knob)
        lo = NodeModel(base_machine,
                       replace(base_power, **{knob: value * (1 - delta)}))
        hi = NodeModel(base_machine,
                       replace(base_power, **{knob: value * (1 + delta)}))
        record(knob, (lo, hi))

    return ExperimentResult(
        experiment_id="x4-sensitivity",
        title=f"Technology sensitivity (+/-{delta:.0%} per parameter)",
        rendered=table.render(),
        data=data,
        notes=(
            "swing = output(+delta) - output(-delta), % of baseline; "
            "evaluated at the best-mean configuration across all "
            "applications"
        ),
    )
