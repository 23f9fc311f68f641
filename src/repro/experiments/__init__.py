"""Experiment drivers: one module per paper table/figure.

Each driver exposes a ``run_*`` function returning an
:class:`~repro.experiments.runner.ExperimentResult` whose ``render()``
prints the same rows/series the paper reports. ``python -m repro
<id>`` prints these and the benchmark (``perfbench/``) times them;
tests assert their shape properties (who wins, approximate factors,
crossover locations).

| Driver | Paper artifact |
|---|---|
| :mod:`~repro.experiments.table1` | Table I (application catalog) |
| :mod:`~repro.experiments.kernel_sweeps` | Figs. 4-6 (perf vs ops/byte) |
| :mod:`~repro.experiments.chiplet_traffic` | Fig. 7 (chiplet vs monolithic) |
| :mod:`~repro.experiments.miss_sensitivity` | Fig. 8 (in-package miss rate) |
| :mod:`~repro.experiments.external_memory` | Fig. 9 (DRAM vs hybrid power) |
| :mod:`~repro.experiments.thermal_eval` | Figs. 10-11 (temperatures) |
| :mod:`~repro.experiments.power_opts` | Figs. 12-13 (optimizations) |
| :mod:`~repro.experiments.exascale_target` | Fig. 14 (exaflops/MW scaling) |
| :mod:`~repro.experiments.reconfiguration` | Table II (oracle reconfig) |
| :mod:`~repro.experiments.dse_summary` | Section V preamble (best-mean) |
| :mod:`~repro.experiments.ablations` | Model/design ablations (ours) |
"""

from repro.experiments.runner import ExperimentResult

__all__ = ["ExperimentResult"]
