#!/usr/bin/env python3
"""Memory-system co-design for a capacity-hungry workload.

A supercomputer customer wants 1 TB per node but worries about power and
resilience. This walk-through uses the memory substrate to compare:

1. external-memory composition (DRAM-only vs DRAM+NVM hybrid) on node
   power for a memory-intensive workload (Fig. 9's question),
2. management policy (first-touch vs hotness migration) on the achieved
   in-package service fraction and thus end performance (Fig. 8's
   question),
3. chain redundancy (cross-links) under SerDes link failures,
4. NVM write endurance under the workload's write rate.

Run:
    python examples/memory_system_codesign.py
"""

import numpy as np

from repro import NodeModel, PAPER_BEST_MEAN, get_application
from repro.memsys import (
    ExternalMemoryNetwork,
    HotnessMigrationPolicy,
    FirstTouchPolicy,
    MemoryManager,
    NVMModule,
)
from repro.perfmodel.mlm import miss_rate_sweep
from repro.power import ExternalMemoryConfig


def external_composition(profile) -> None:
    print("=== 1. External-memory composition (Fig. 9's trade-off) ===")
    model = NodeModel()
    for name, cfg in (
        ("DRAM-only", ExternalMemoryConfig.dram_only()),
        ("DRAM+NVM hybrid", ExternalMemoryConfig.hybrid()),
    ):
        ev = model.with_ext_config(cfg).evaluate(
            profile, PAPER_BEST_MEAN,
            ext_fraction=profile.ext_memory_fraction,
        )
        p = ev.power
        print(
            f"  {name:16s} total={float(p.total):6.1f} W  "
            f"ext static={float(p.ext_memory_static + p.serdes_static):5.1f} W  "
            f"ext dynamic={float(p.ext_memory_dynamic + p.serdes_dynamic):5.1f} W"
        )
    print(
        f"  -> {profile.name}'s heavy external traffic "
        f"({profile.ext_memory_fraction:.0%}) makes NVM's access energy "
        "outweigh its static-power savings.\n"
    )


def management_policy(profile) -> None:
    print("=== 2. Placement policy drives the in-package hit fraction ===")
    rng = np.random.default_rng(1)
    page = 4096
    hot = rng.integers(0, 48, size=9000)
    cold = rng.integers(0, 4096, size=1000)
    epoch = np.concatenate([hot, cold]) * page
    warm = (np.arange(256, dtype=np.int64) + 100_000) * page

    for name, policy in (
        ("first-touch", FirstTouchPolicy()),
        ("hotness migration", HotnessMigrationPolicy()),
    ):
        mgr = MemoryManager(256 * page, policy)
        mgr.epoch(warm)
        fractions = mgr.run_batch([epoch] * 4)
        steady_hit = fractions[-1]
        rel = miss_rate_sweep(
            profile, PAPER_BEST_MEAN.n_cus, PAPER_BEST_MEAN.gpu_freq,
            PAPER_BEST_MEAN.bandwidth,
            miss_rates=(0.0, 1.0 - steady_hit),
        )
        print(
            f"  {name:18s} steady in-package fraction={steady_hit:5.1%}  "
            f"-> {float(rel[1]):.0%} of ideal performance"
        )
    print()


def chain_redundancy() -> None:
    print("=== 3. SerDes link failures and cross-linked chains ===")
    for cross in (False, True):
        net = ExternalMemoryNetwork.dram_only(cross_linked=cross)
        net.fail_link(0, 0)  # the head link of chain 0 dies
        reachable = sum(
            net.is_reachable(0, pos)
            for pos in range(len(net.chains[0].modules))
        )
        total = len(net.chains[0].modules)
        label = "cross-linked" if cross else "plain chains"
        print(f"  {label:14s}: {reachable}/{total} of chain 0's modules "
              "remain reachable after a head-link failure")
    net = ExternalMemoryNetwork.dram_only(cross_linked=True)
    before = net.access_latency(0, 1)
    net.fail_link(0, 0)
    after = net.access_latency(0, 1)
    print(f"  rerouted access latency: {before * 1e9:.0f} ns -> "
          f"{after * 1e9:.0f} ns (longer path through the partner chain)\n")


def nvm_endurance(profile) -> None:
    print("=== 4. NVM write endurance under this workload ===")
    model = NodeModel()
    ev = model.evaluate(
        profile, PAPER_BEST_MEAN, ext_fraction=profile.ext_memory_fraction
    )
    write_rate = float(ev.metrics.ext_rate) * profile.write_fraction / 2.0
    module = NVMModule()
    years = module.lifetime_seconds(write_rate / 2) / (365 * 24 * 3600)
    print(
        f"  external write rate ~{write_rate / 1e9:.0f} GB/s split over "
        f"the hybrid's NVM modules -> ~{years:.1f} years to wear-out "
        "per module (with 90% wear-leveling efficiency)\n"
    )


def main() -> None:
    profile = get_application("SNAP")
    print(f"Workload: {profile.name} — {profile.description}\n")
    external_composition(profile)
    management_policy(profile)
    chain_redundancy()
    nvm_endurance(profile)


if __name__ == "__main__":
    main()
