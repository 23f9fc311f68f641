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

Two engines, following the repo's pattern: ``"tensor"`` broadcasts the
closed form over numpy arrays of ``(write_fraction,
concurrent_kernels)``; ``"point"`` is the scalar oracle loop. Both use
only elementwise ``+ - * / min max`` and an integer-exponent repeated
product (never libm ``pow``), so they are bit-identical — a property
``tests/test_fleet.py`` pins with hypothesis.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import _finite_positive, _is_int
from repro.core.node import NodeModel
from repro.perfmodel.machine import MachineParams
from repro.util.units import GB, NS
from repro.workloads.kernels import KernelProfile

__all__ = [
    "LINK_ENGINES",
    "LinkDerate",
    "LinkTierParams",
    "derate",
    "derate_machine",
    "derate_model",
]

LINK_ENGINES = ("tensor", "point")
"""Valid link-tier engines (the first is the default)."""


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
                "(integer powers keep the two engines bit-identical)"
            )

    @property
    def payload_bandwidth(self) -> float:
        """Aggregate post-protocol payload bandwidth, B/s."""
        return self.n_links * self.link_bandwidth * self.protocol_efficiency


@dataclass(frozen=True)
class LinkDerate:
    """Effective external-memory parameters after the link tier.

    Scalars from the point engine, arrays from the tensor engine; feed
    them into :func:`derate_machine` /
    :meth:`~repro.core.node.NodeModel.with_machine`.
    """

    ext_bandwidth: np.ndarray | float
    ext_latency: np.ndarray | float


def _ipow(value, exponent: int):
    """Integer power by repeated product — the same multiply sequence
    for python floats and numpy arrays, so the engines cannot diverge
    the way libm ``pow`` and numpy's vectorized ``**`` can."""
    result = value * 0.0 + 1.0
    for _ in range(int(exponent)):
        result = result * value
    return result


def _derate_terms(params: LinkTierParams, w, k, base_bandwidth, base_latency):
    """The closed form, written once for both engines.

    *w*, *k* are either python scalars or numpy arrays; every operation
    is elementwise, so the scalar loop and the broadcast pass execute
    identical IEEE operation sequences per element.
    """
    rx = params.payload_bandwidth * params.downlink_fraction
    tx = params.payload_bandwidth * (1.0 - params.downlink_fraction)
    per_byte_rx = (1.0 - w) / rx
    per_byte_tx = w / tx
    per_byte = (
        np.maximum(per_byte_rx, per_byte_tx)
        if isinstance(per_byte_rx, np.ndarray)
        or isinstance(per_byte_tx, np.ndarray)
        else max(per_byte_rx, per_byte_tx)
    )
    stream_bw = 1.0 / per_byte
    share = 1.0 / (1.0 + params.arbitration_overhead * (k - 1.0))
    bw = stream_bw * share
    bw = (
        np.minimum(bw, base_bandwidth)
        if isinstance(bw, np.ndarray)
        else min(bw, base_bandwidth)
    )
    rho = (k - 1.0) / k
    growth = 1.0 + params.contention_kappa * _ipow(
        rho, params.contention_exponent
    )
    latency = base_latency + params.hops * params.link_latency * growth
    return bw, latency


def derate(
    params: LinkTierParams,
    write_fraction,
    concurrent_kernels=1,
    machine: MachineParams | None = None,
    *,
    engine: str = "tensor",
) -> LinkDerate:
    """Effective ``(ext_bandwidth, ext_latency)`` under the link tier.

    *write_fraction* and *concurrent_kernels* may be scalars or
    broadcastable arrays. ``engine="tensor"`` evaluates the closed form
    in one numpy broadcast; ``engine="point"`` loops python scalars over
    the broadcast elements — the oracle. The link tier only ever
    *degrades*: effective bandwidth is capped at the machine's
    ``ext_bandwidth`` and latency only grows from ``ext_latency``.
    """
    if engine not in LINK_ENGINES:
        raise ValueError(
            f"unknown link engine {engine!r}; use one of {LINK_ENGINES}"
        )
    machine = machine or MachineParams()
    w_arr = np.asarray(write_fraction, dtype=float)
    k_arr = np.asarray(concurrent_kernels, dtype=float)
    if np.any(w_arr < 0.0) or np.any(w_arr > 1.0):
        raise ValueError("write_fraction must be in [0, 1]")
    if np.any(k_arr < 1.0):
        raise ValueError("concurrent_kernels must be >= 1")
    scalar_in = w_arr.ndim == 0 and k_arr.ndim == 0

    if engine == "tensor":
        w_b, k_b = np.broadcast_arrays(w_arr, k_arr)
        bw, lat = _derate_terms(
            params, w_b, k_b, machine.ext_bandwidth, machine.ext_latency
        )
        bw = np.asarray(bw, dtype=float)
        lat = np.broadcast_to(
            np.asarray(lat, dtype=float), bw.shape
        ).copy()
    else:
        w_b, k_b = np.broadcast_arrays(w_arr, k_arr)
        bw = np.empty(w_b.shape, dtype=float)
        lat = np.empty(w_b.shape, dtype=float)
        flat_w, flat_k = w_b.ravel(), k_b.ravel()
        flat_bw, flat_lat = bw.ravel(), lat.ravel()
        for i in range(flat_w.size):
            b, l = _derate_terms(
                params,
                float(flat_w[i]),
                float(flat_k[i]),
                machine.ext_bandwidth,
                machine.ext_latency,
            )
            flat_bw[i] = b
            flat_lat[i] = l
    if scalar_in:
        return LinkDerate(
            ext_bandwidth=float(bw), ext_latency=float(lat)
        )
    return LinkDerate(ext_bandwidth=bw, ext_latency=lat)


def derate_machine(
    machine: MachineParams,
    params: LinkTierParams,
    write_fraction: float,
    concurrent_kernels: int = 1,
) -> MachineParams:
    """*machine* with its external path derated by the link tier.

    Scalar (point-engine) evaluation, so the replaced fields are plain
    python floats and the machine's repr — hence every downstream
    :func:`~repro.perf.evalcache.fingerprint_model` — keys the derate
    deterministically.
    """
    derated = derate(
        params,
        float(write_fraction),
        float(concurrent_kernels),
        machine,
        engine="point",
    )
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
