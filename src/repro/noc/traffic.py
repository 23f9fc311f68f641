"""Traffic matrices and out-of-chiplet traffic accounting (Fig. 7).

The paper's Finding 1 (Section V-A): 60-95% of memory-system traffic
leaves its source chiplet, because the physical address space is
interleaved across all eight DRAM stacks (7/8 of uniform accesses are
remote) and because CPU-GPU coherence crosses the package. Finding 2:
despite that, performance loss versus a hypothetical monolithic EHP is
at most ~13%, because wavefront parallelism hides the extra TSV and
interposer hops.

This module computes traffic matrices over the topology and summarizes
them into the two Fig. 7 metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.noc.routing import route
from repro.noc.topology import EHPTopology
from repro.perfmodel.machine import MachineParams
from repro.perfmodel.roofline import evaluate_kernel
from repro.workloads.kernels import KernelProfile

__all__ = ["TrafficMatrix", "chiplet_traffic_summary", "ChipletTrafficSummary"]


@dataclass(frozen=True)
class TrafficMatrix:
    """Bytes exchanged between every pair of topology vertices.

    ``sources``/``destinations`` name the rows/columns of ``bytes_``,
    which is stored as a float array (any array-like is accepted).
    """

    sources: tuple[str, ...]
    destinations: tuple[str, ...]
    bytes_: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.bytes_, dtype=float)
        object.__setattr__(self, "bytes_", matrix)
        expected = (len(self.sources), len(self.destinations))
        if matrix.shape != expected:
            raise ValueError(f"matrix shape {matrix.shape} != {expected}")
        if not ((matrix >= 0) & (matrix < np.inf)).all():
            raise ValueError("traffic must be finite and non-negative")

    @property
    def total(self) -> float:
        """All bytes in the matrix."""
        return float(self.bytes_.sum())

    def out_of_chiplet_fraction(self, topology: EHPTopology) -> float:
        """Share of bytes whose source and destination are not the same
        vertical chiplet stack."""
        total = self.total
        if total == 0:
            return 0.0
        remote = 0.0
        for i, src in enumerate(self.sources):
            for j, dst in enumerate(self.destinations):
                if not topology.same_chiplet(src, dst):
                    remote += float(self.bytes_[i, j])
        return remote / total

    def mean_latency(self, topology: EHPTopology) -> float:
        """Traffic-weighted mean route latency, seconds."""
        total = self.total
        if total == 0:
            return 0.0
        acc = 0.0
        for i, src in enumerate(self.sources):
            for j, dst in enumerate(self.destinations):
                w = float(self.bytes_[i, j])
                if w:
                    acc += w * route(topology, src, dst).latency
        return acc / total


def gpu_dram_traffic_matrix(
    topology: EHPTopology,
    total_bytes: float,
    locality: float = 1.0 / 8.0,
    coherence_fraction: float = 0.03,
) -> TrafficMatrix:
    """Build the kernel-level traffic matrix.

    GPU chiplets issue *total_bytes* of DRAM traffic, interleaved across
    the eight stacks: each chiplet sends *locality* of its traffic to its
    own stack and the rest uniformly to the other seven (the paper's
    interleaved physical address space). A *coherence_fraction* of the
    total additionally flows between GPU chiplets and the CPU clusters.
    """
    if not 0 <= total_bytes < math.inf:
        raise ValueError("total_bytes must be finite and non-negative")
    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must be in [0, 1]")
    if not 0.0 <= coherence_fraction < 1.0:
        raise ValueError("coherence_fraction must be in [0, 1)")

    gpus = topology.gpu_chiplets
    drams = topology.dram_stacks
    cpus = topology.cpu_chiplets
    sources = tuple(gpus)
    destinations = tuple(drams) + tuple(cpus)
    n_gpu = len(gpus)
    matrix = np.zeros((len(sources), len(destinations)))

    mem_bytes = total_bytes * (1.0 - coherence_fraction)
    per_gpu = mem_bytes / n_gpu
    for i, gpu in enumerate(gpus):
        local = drams.index(topology.local_dram(gpu))
        for j in range(len(drams)):
            if j == local:
                matrix[i, j] += per_gpu * locality
            else:
                matrix[i, j] += per_gpu * (1.0 - locality) / (n_gpu - 1)

    coh_bytes = total_bytes * coherence_fraction
    per_pair = coh_bytes / (n_gpu * len(cpus))
    for i in range(n_gpu):
        for j in range(len(cpus)):
            matrix[i, len(drams) + j] += per_pair

    return TrafficMatrix(sources=sources, destinations=destinations, bytes_=matrix)


@dataclass(frozen=True)
class ChipletTrafficSummary:
    """The two Fig. 7 metrics for one application."""

    application: str
    out_of_chiplet_fraction: float
    perf_vs_monolithic: float

    def as_percentages(self) -> tuple[float, float]:
        """(out-of-chiplet %, performance-vs-monolithic %)."""
        return (
            self.out_of_chiplet_fraction * 100.0,
            self.perf_vs_monolithic * 100.0,
        )


def chiplet_traffic_summary(
    profile: KernelProfile,
    n_cus: float,
    freq: float,
    bandwidth: float,
    topology: EHPTopology | None = None,
    machine: MachineParams | None = None,
) -> ChipletTrafficSummary:
    """Compute Fig. 7's two bars for one application.

    The out-of-chiplet fraction comes from the interleaved traffic
    matrix, weighted by the profile's cache behaviour (cache-resident
    kernels keep a larger share of traffic on-chiplet — their LLC slices
    are local). The performance ratio re-evaluates the kernel with the
    chiplet organization's extra interposer latency versus the
    monolithic baseline.
    """
    topology = topology or EHPTopology()
    machine = machine or MachineParams()

    # Cache-friendly kernels resolve more traffic in their local LLC
    # slice, lowering the remote share below the 7/8 interleaving bound.
    locality = 1.0 / 8.0 + profile.cache_hit_rate * 0.25
    matrix = gpu_dram_traffic_matrix(
        topology, total_bytes=1.0, locality=locality
    )
    remote_fraction = matrix.out_of_chiplet_fraction(topology)

    extra = 2 * 5.0e-9 + 15.0e-9  # two TSV hops + interposer traversal
    chiplet = evaluate_kernel(
        profile, n_cus, freq, bandwidth, machine=machine,
        extra_latency=extra * remote_fraction,
    )
    monolithic = evaluate_kernel(
        profile, n_cus, freq, bandwidth, machine=machine, extra_latency=0.0
    )
    ratio = float(monolithic.time / chiplet.time)
    return ChipletTrafficSummary(
        application=profile.name,
        out_of_chiplet_fraction=remote_fraction,
        perf_vs_monolithic=ratio,
    )
