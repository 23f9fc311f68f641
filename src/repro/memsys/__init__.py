"""Memory-system substrate: HBM stacks, NVM, the external memory network,
address interleaving, and multi-level memory management.

Implements Section II-B: eight in-package 3D DRAM stacks (32 GB /
1 TB/s-class each in the exascale timeframe), an external network of
DRAM/NVM modules on point-to-point SerDes chains with redundancy
cross-links, software-controlled page placement between the levels, and
an optional hardware DRAM-cache mode.
"""

from repro.memsys.dram import HBMStack, HBMTimings, hbm_generation
from repro.memsys.nvm import NVMModule, NVMParams
from repro.memsys.memnet import ExternalMemoryNetwork, MemoryModule
from repro.memsys.interleave import AddressInterleaver
from repro.memsys.manager import (
    FirstTouchPolicy,
    HotnessMigrationPolicy,
    MemoryManager,
    PagePlacement,
)
from repro.memsys.dramcache import DramCache, DramCacheStats, replay_caches
from repro.memsys.rowbuffer import RowBufferSim, RowBufferStats

__all__ = [
    "HBMStack",
    "HBMTimings",
    "hbm_generation",
    "NVMModule",
    "NVMParams",
    "ExternalMemoryNetwork",
    "MemoryModule",
    "AddressInterleaver",
    "MemoryManager",
    "PagePlacement",
    "FirstTouchPolicy",
    "HotnessMigrationPolicy",
    "DramCache",
    "DramCacheStats",
    "replay_caches",
    "RowBufferSim",
    "RowBufferStats",
]
