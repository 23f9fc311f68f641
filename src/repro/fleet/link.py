"""Analytic inter-APU link tier (bandwidth/latency derating).

The node model's external memory network assumes a node has its eight
SerDes links to itself. In a multi-APU node — PAPERS.md's MI300A
Infinity Fabric deep-dive and the ExaNeSt/EuroExa interconnect both
describe this tier — external traffic first crosses inter-APU links
that are narrower, asymmetric (more raw wires face the APU than leave
it), protocol-taxed, and shared by whatever other kernels run on the
package. This module models that tier analytically and *derates* the
:class:`~repro.perfmodel.machine.MachineParams` external bandwidth and
latency a :class:`~repro.core.node.NodeModel` evaluates with:

* **Directional bottleneck.** Raw link payload bandwidth splits into a
  downlink (toward the APU, serving reads) and an uplink share.
  Directions stream concurrently, so for a traffic mix with write
  fraction ``w`` the sustainable rate is ``1 / max((1-w)/rx, w/tx)``.
* **Arbitration.** ``K`` concurrent kernels time-share the links; each
  extra kernel costs an ``arbitration_overhead`` slice of efficiency.
* **Contention latency.** Link occupancy grows with concurrency
  (``rho = (K-1)/K``), and queueing delay grows as the bounded
  polynomial the perf model already uses for memory contention:
  ``hops * link_latency * (1 + kappa * rho**exponent)`` is added to
  the base external latency.

:func:`derate` evaluates the closed form on python floats, using only
``+ - * / min max`` and an integer-exponent repeated product (never
libm ``pow``), so a derated machine is the same bit pattern on every
platform and every run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.core.config import _finite_positive, _is_int
from repro.core.node import NodeModel
from repro.perfmodel.machine import LinkDerate, MachineParams
from repro.util.units import GB, NS
from repro.workloads.kernels import KernelProfile

__all__ = [
    "LinkDerate",
    "LinkTierParams",
    "derate",
    "derate_machine",
    "derate_model",
]

@dataclass(frozen=True)
class LinkTierParams:
    """Shape constants of the inter-APU link tier.

    Defaults sketch a four-APU package in the EHP timeframe: eight
    80 GB/s raw links at 90% protocol efficiency, 5/8 of the payload
    wires facing the APU, two hops to the external network, and the
    bounded contention-growth shape the rest of the perf model uses.
    """

    n_links: int = 8
    link_bandwidth: float = 80.0 * GB
    downlink_fraction: float = 0.625
    protocol_efficiency: float = 0.9
    link_latency: float = 150.0 * NS
    hops: int = 2
    arbitration_overhead: float = 0.05
    contention_kappa: float = 1.5
    contention_exponent: int = 4

    def __post_init__(self) -> None:
        if not (_is_int(self.n_links) and self.n_links > 0):
            raise ValueError("n_links must be a positive integer")
        if not _finite_positive(self.link_bandwidth):
            raise ValueError("link_bandwidth must be finite and positive")
        if not 0.0 < self.downlink_fraction < 1.0:
            raise ValueError("downlink_fraction must be in (0, 1)")
        if not 0.0 < self.protocol_efficiency <= 1.0:
            raise ValueError("protocol_efficiency must be in (0, 1]")
        if not (_is_int(self.hops) and self.hops >= 0):
            raise ValueError("hops must be a non-negative integer")
        for name in (
            "link_latency", "arbitration_overhead", "contention_kappa"
        ):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if not (
            _is_int(self.contention_exponent)
            and self.contention_exponent >= 0
        ):
            raise ValueError(
                "contention_exponent must be a non-negative integer "
                "(an integer power is an exact repeated product)"
            )

    @property
    def payload_bandwidth(self) -> float:
        """Aggregate post-protocol payload bandwidth, B/s."""
        return self.n_links * self.link_bandwidth * self.protocol_efficiency


def _ipow(value: float, exponent: int) -> float:
    """Integer power by repeated product: an exact multiply sequence,
    not libm ``pow``."""
    result = value * 0.0 + 1.0
    for _ in range(int(exponent)):
        result = result * value
    return result


def derate(
    params: LinkTierParams,
    write_fraction: float,
    concurrent_kernels: float = 1,
    machine: MachineParams | None = None,
) -> LinkDerate:
    """Effective ``(ext_bandwidth, ext_latency)`` under the link tier.

    The link tier only ever *degrades*: effective bandwidth is capped
    at the machine's ``ext_bandwidth`` and latency only grows from
    ``ext_latency``.
    """
    w = float(write_fraction)
    k = float(concurrent_kernels)
    # Spelled so that NaN fails: every comparison with it is false.
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"write_fraction must be in [0, 1], got {w!r}")
    if not 1.0 <= k < math.inf:
        raise ValueError(
            f"concurrent_kernels must be finite and >= 1, got {k!r}"
        )
    machine = machine or MachineParams()
    rx = params.payload_bandwidth * params.downlink_fraction
    tx = params.payload_bandwidth * (1.0 - params.downlink_fraction)
    stream_bw = 1.0 / max((1.0 - w) / rx, w / tx)
    share = 1.0 / (1.0 + params.arbitration_overhead * (k - 1.0))
    bw = min(stream_bw * share, machine.ext_bandwidth)
    rho = (k - 1.0) / k
    growth = 1.0 + params.contention_kappa * _ipow(
        rho, params.contention_exponent
    )
    latency = machine.ext_latency + params.hops * params.link_latency * growth
    return LinkDerate(ext_bandwidth=float(bw), ext_latency=float(latency))


def derate_machine(
    machine: MachineParams,
    params: LinkTierParams,
    write_fraction: float,
    concurrent_kernels: int = 1,
) -> MachineParams:
    """*machine* with its external path derated by the link tier.

    The replaced fields are plain python floats, so the machine's repr
    — hence the serving layer's answer-memo key and the run manifest's
    model fingerprint — keys the derate deterministically.
    """
    derated = derate(params, write_fraction, concurrent_kernels, machine)
    return dataclasses.replace(
        machine,
        ext_bandwidth=derated.ext_bandwidth,
        ext_latency=derated.ext_latency,
    )


def derate_model(
    model: NodeModel,
    params: LinkTierParams | None,
    profile: KernelProfile,
    concurrent_kernels: int = 1,
) -> NodeModel:
    """A copy of *model* whose machine sees the link tier for *profile*.

    ``params=None`` is the no-link-tier identity (the same object comes
    back, so caches keyed by model fingerprint keep hitting).
    """
    if params is None:
        return model
    machine = derate_machine(
        model.machine, params, profile.write_fraction, concurrent_kernels
    )
    return model.with_machine(machine)
