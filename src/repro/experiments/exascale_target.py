"""Fig. 14: MaxFlops performance and power scaling to the exascale target.

Sweeping CU count {192..320} at 1 GHz and 1 TB/s: machine exaflops
(100,000 nodes) and machine power in MW. The paper reports 1.86
double-precision exaflops at 11.1 MW for the peak-compute scenario with
320 CUs per node (18.6 teraflops per node).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.exascale import ExascaleSystem
from repro.core.node import NodeModel
from repro.experiments.runner import ExperimentResult
from repro.util.tables import TextTable
from repro.workloads.catalog import get_application

__all__ = ["run_fig14", "CU_SWEEP"]

CU_SWEEP = (192, 224, 256, 288, 320)


def run_fig14(
    model: NodeModel | None = None,
    cu_counts: Sequence[int] = CU_SWEEP,
    n_nodes: int = 100_000,
) -> ExperimentResult:
    """Regenerate Fig. 14's two panels (exaflops and MW vs CU count)."""
    system = ExascaleSystem(n_nodes=n_nodes, model=model or NodeModel())
    profile = get_application("MaxFlops")
    estimates = system.cu_sweep(profile, cu_counts)
    table = TextTable(
        ["CUs per node", "Exaflops", "Power (MW)", "Node TF", "Node W"]
    )
    data = {}
    for n, est in zip(cu_counts, estimates):
        table.add_row(
            [n, est.exaflops, est.machine_power_mw,
             est.node_teraflops, est.node_power_w]
        )
        data[int(n)] = {
            "exaflops": est.exaflops,
            "power_mw": est.machine_power_mw,
            "node_tf": est.node_teraflops,
            "node_w": est.node_power_w,
        }
    return ExperimentResult(
        experiment_id="fig14",
        title="MaxFlops performance and power",
        rendered=table.render(),
        data=data,
        notes=(
            "peak-compute scenario (EHP package power only); paper: "
            "1.86 EF / 11.1 MW at 320 CUs, 1 GHz, 1 TB/s"
        ),
    )
