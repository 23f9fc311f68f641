"""Machine-level constants for the analytic models.

These are the EHP's microarchitecture-independent parameters: peak issue
width, memory latencies, external-memory bandwidth, and the shape constants
of the contention and overlap models. They are deliberately separate from
:class:`repro.core.config.EHPConfig` (which describes a *design point*): a
:class:`MachineParams` instance describes the *technology*, an ``EHPConfig``
picks a point within it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from repro.util.units import NS, TB


@dataclass(frozen=True)
class MachineParams:
    """Technology and model-shape constants for the EHP timeframe.

    Attributes
    ----------
    flops_per_cu_cycle:
        Peak double-precision flops per CU per cycle. A 32-CU GPU chiplet
        at 1 GHz delivers 2 DP teraflops (Section II-A1), i.e. 64
        flops/cycle/CU.
    cacheline_bytes:
        Memory-system transfer granularity.
    mem_latency:
        Loaded round-trip latency to in-package 3D DRAM, seconds.
    ext_latency:
        Loaded round-trip latency to the external memory network, seconds
        (adds SerDes hops and module traversal).
    ext_bandwidth:
        Aggregate external-memory bandwidth over the eight links, B/s.
    contention_kappa / contention_exponent:
        Shape of the bounded queueing-delay growth of memory latency as
        bandwidth utilization approaches 1.
    overlap_sharpness:
        Sharpness of the smooth-max combining compute and memory time;
        higher values mean better compute/memory overlap (harder knee).
    reference_cus / reference_freq:
        Normalization point for the cache-thrashing pressure term: the
        baseline EHP provisioning of 8 chiplets x 32 CUs at 1 GHz.
    chiplet_extra_latency:
        Additional latency paid by an access that leaves its chiplet
        (two TSV hops plus interposer traversal, Section V-A), seconds.
    remote_fraction_uniform:
        Fraction of accesses that are out-of-chiplet when addresses are
        interleaved uniformly across the eight stacks (7/8).
    """

    flops_per_cu_cycle: float = 64.0
    cacheline_bytes: float = 64.0
    mem_latency: float = 350.0 * NS
    ext_latency: float = 1400.0 * NS
    ext_bandwidth: float = 0.5 * TB
    contention_kappa: float = 2.0
    contention_exponent: float = 4.0
    overlap_sharpness: float = 6.0
    reference_cus: float = 256.0
    reference_freq: float = 1.0e9
    thrash_exponent: float = 2.0
    chiplet_extra_latency: float = 40.0 * NS
    remote_fraction_uniform: float = 7.0 / 8.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        positive = (
            "flops_per_cu_cycle",
            "cacheline_bytes",
            "mem_latency",
            "ext_latency",
            "ext_bandwidth",
            "overlap_sharpness",
            "reference_cus",
            "reference_freq",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.remote_fraction_uniform <= 1.0:
            raise ValueError("remote_fraction_uniform must be in [0, 1]")
        if self.contention_kappa < 0 or self.contention_exponent < 0:
            raise ValueError("contention constants must be non-negative")

    def peak_flops(self, n_cus: float, freq_hz: float) -> float:
        """Peak DP throughput of *n_cus* CUs at *freq_hz*, FLOP/s."""
        return self.flops_per_cu_cycle * n_cus * freq_hz


@dataclass(frozen=True)
class LinkDerate:
    """The external-memory path one evaluation sees: bandwidth in B/s
    and round-trip latency in seconds, in place of the machine's
    ``ext_bandwidth`` and ``ext_latency``.

    :func:`repro.fleet.link.derate` builds one from python floats for
    one inter-APU link tier. The fields may also be arrays that
    broadcast against the evaluation's output, one external path per
    row: the fleet sweep passes ``(P, 1)`` columns, one per series.
    :func:`~repro.perfmodel.roofline.evaluate_kernel` rejects any entry
    that is not finite and positive.
    """

    ext_bandwidth: float | np.ndarray
    ext_latency: float | np.ndarray
