"""Trace-driven, cycle-approximate APU simulator.

The paper adjusts its high-level model with the AMD gem5 APU simulator
for effects the analytic forms miss (Section III). This package is the
equivalent substrate: a discrete-event engine (:mod:`repro.sim.engine`),
a wavefront-level CU model (:mod:`repro.sim.gpu_core`), a cache
hierarchy (:mod:`repro.sim.cache_sim`), and the glue that runs a
synthetic memory trace through CU -> LLC -> (local or remote) DRAM
(:mod:`repro.sim.apu_sim`), including the chiplet organization's extra
hop latency so the Fig. 7 comparison can be cross-checked in simulation.
"""

from repro.sim.engine import Event, EventQueue, Simulator, TupleEventHeap
from repro.sim.cache_sim import CacheLevel, CacheSim
from repro.sim.gpu_core import ComputeUnit, Wavefront, mean_utilization
from repro.sim.apu_sim import ApuSimConfig, ApuSimResult, ApuSimulator

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "TupleEventHeap",
    "CacheLevel",
    "CacheSim",
    "ComputeUnit",
    "Wavefront",
    "mean_utilization",
    "ApuSimConfig",
    "ApuSimResult",
    "ApuSimulator",
]
