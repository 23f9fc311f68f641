"""Model and design ablations (our additions beyond the paper).

Three studies that isolate design choices DESIGN.md calls out:

* **Latency-hiding ablation** — re-evaluate the chiplet-vs-monolithic
  comparison with latency hiding disabled (mlp forced low): shows the
  chiplet penalty would be severe without wavefront parallelism,
  quantifying the Section V-A take-away.
* **Contention-term ablation** — remove the bounded queueing growth of
  memory latency: memory-intensive kernels lose their over-provisioning
  decline, flattening the Fig. 6 fall-off.
* **Memory-management ablation** — first-touch vs hotness-migration
  placement on a skewed synthetic workload: the achieved in-package
  service fraction feeds the Fig. 8 model, connecting management
  quality to end performance.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PAPER_BEST_MEAN
from repro.experiments.runner import ExperimentResult
from repro.perfmodel.machine import MachineParams
from repro.perfmodel.roofline import evaluate_kernel
from repro.memsys.manager import (
    FirstTouchPolicy,
    HotnessMigrationPolicy,
    MemoryManager,
)
from repro.util.tables import TextTable
from repro.workloads.catalog import get_application

__all__ = [
    "run_latency_hiding_ablation",
    "run_contention_ablation",
    "run_memory_management_ablation",
]


def run_latency_hiding_ablation() -> ExperimentResult:
    """Chiplet penalty with and without wavefront latency hiding."""
    cfg = PAPER_BEST_MEAN
    extra = 25.0e-9  # out-of-chiplet hop overhead
    table = TextTable(
        ["Application", "Penalty with hiding (%)", "Penalty, hiding off (%)"]
    )
    data = {}
    for name in ("XSBench", "SNAP", "CoMD"):
        profile = get_application(name)
        crippled = profile.with_overrides(
            mlp_per_cu=2.0, latency_sensitivity=0.9
        )
        rows = []
        for p in (profile, crippled):
            base = evaluate_kernel(p, cfg.n_cus, cfg.gpu_freq, cfg.bandwidth)
            chip = evaluate_kernel(
                p, cfg.n_cus, cfg.gpu_freq, cfg.bandwidth,
                extra_latency=extra,
            )
            rows.append(float(chip.time / base.time - 1.0) * 100.0)
        table.add_row([name] + rows)
        data[name] = {"with_hiding_pct": rows[0], "without_hiding_pct": rows[1]}
    return ExperimentResult(
        experiment_id="ablation-latency-hiding",
        title="Chiplet latency penalty vs wavefront latency hiding",
        rendered=table.render(),
        data=data,
        notes="hiding off: mlp=2, latency_sensitivity=0.9",
    )


def run_contention_ablation() -> ExperimentResult:
    """The over-provisioning fall-off with and without its model terms.

    The CU-axis decline of memory-intensive kernels (Fig. 6b) comes from
    cache thrashing; removing the profile's ``thrash_pressure`` flattens
    it. The frequency-axis saturation comes from bandwidth contention;
    removing ``contention_kappa`` softens that. Both toggles are shown.
    """
    profile = get_application("LULESH")
    cfg = PAPER_BEST_MEAN
    cus = np.array([192, 256, 320, 384], dtype=float)
    no_thrash = profile.with_overrides(thrash_pressure=0.0)
    normal = MachineParams()
    no_contention = MachineParams(contention_kappa=0.0)
    table = TextTable(
        ["CUs", "Full model", "No thrashing", "No contention"]
    )
    data = {"cus": cus.tolist(), "full": [], "no_thrash": [],
            "no_contention": []}
    variants = (
        ("full", profile, normal),
        ("no_thrash", no_thrash, normal),
        ("no_contention", profile, no_contention),
    )
    rates = {
        key: np.asarray(
            evaluate_kernel(
                prof, cus, cfg.gpu_freq, cfg.bandwidth, machine=mach
            ).flops_rate
        )
        for key, prof, mach in variants
    }
    for i, n in enumerate(cus):
        row = [rates[k][i] / rates[k][0] for k in ("full", "no_thrash",
                                                   "no_contention")]
        table.add_row([int(n)] + row)
        for k, v in zip(("full", "no_thrash", "no_contention"), row):
            data[k].append(float(v))
    return ExperimentResult(
        experiment_id="ablation-contention",
        title="Thrashing/contention terms and the over-provisioning fall-off",
        rendered=table.render(),
        data=data,
        notes="normalized to 192 CUs; LULESH at best-mean freq/bandwidth",
    )


def run_memory_management_ablation(
    n_pages_hot: int = 64,
    n_pages_total: int = 4096,
    capacity_pages: int = 256,
    n_epochs: int = 6,
    seed: int = 11,
) -> ExperimentResult:
    """First-touch vs hotness migration on a skewed access stream."""
    rng = np.random.default_rng(seed)
    page = 4096
    epochs = []
    for _ in range(n_epochs):
        hot = rng.integers(0, n_pages_hot, size=8000)
        cold = rng.integers(0, n_pages_total, size=2000)
        pages = np.concatenate([hot, cold])
        rng.shuffle(pages)
        epochs.append(pages * page)

    results = {}
    # Warm-up pages sit entirely outside the hot set (and outside the
    # later epochs' address range), so first-touch fills in-package DRAM
    # with pages that will never be touched again, while the migration
    # policy reclaims the space for the real hot set.
    warm = (
        np.arange(capacity_pages, dtype=np.int64) + 10 * n_pages_total
    ) * page
    for label, policy in (
        ("first-touch", FirstTouchPolicy()),
        ("hotness-migration", HotnessMigrationPolicy()),
    ):
        manager = MemoryManager(capacity_pages * page, policy)
        manager.epoch(warm)
        results[label] = manager.run_batch(epochs)

    table = TextTable(
        ["Epoch"] + list(results)
    )
    for i in range(n_epochs):
        table.add_row([i] + [results[k][i] for k in results])
    return ExperimentResult(
        experiment_id="ablation-memory-management",
        title="Two-level memory management policies (in-package hit fraction)",
        rendered=table.render(),
        data=results,
        notes=(
            "hotness migration converges to the hot set after one epoch; "
            "first-touch stays polluted by the warm-up allocation"
        ),
    )
