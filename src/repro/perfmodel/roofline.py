"""Extended roofline model for GPU kernels.

This is the core of the reproduction's high-level simulator. Given a
:class:`~repro.workloads.kernels.KernelProfile` and one or more hardware
configurations ``(n_cus, freq, bandwidth)``, it estimates kernel execution
time and the traffic/activity rates the power and thermal models consume.

The model composes four effects the paper's Section IV curves exhibit:

1. **Compute bound** — throughput scales as ``issue_efficiency *
   flops_per_cu_cycle * freq * n_cus**parallel_fraction`` (sub-linear CU
   scaling models serialization and divergence).
2. **Cache thrashing** — the LLC hit rate decays as aggregate concurrency
   (``n_cus * freq`` relative to the reference machine) grows, so DRAM
   traffic *increases* with compute capability for thrash-prone kernels.
   This produces the rise-then-fall curves of memory-intensive kernels
   (Fig. 6) and the plateaus of balanced ones (Fig. 5).
3. **Bandwidth bound with contention** — DRAM service time is traffic over
   bandwidth, and the effective memory latency grows (bounded queueing
   term) as utilization approaches 1.
4. **Latency bound** — by Little's law, ``n_cus * mlp_per_cu`` outstanding
   misses over the loaded latency caps throughput; the profile's
   ``latency_sensitivity`` sets how much of that latency is on the
   dependence-critical path (irregular kernels like LULESH).

Compute and memory time combine through a smooth max: GPUs overlap the two
almost perfectly, and measured scaling curves show soft knees.

All arithmetic is numpy-broadcast, so any of the three hardware axes may be
an array; scalars in, scalars out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.perfmodel.machine import LinkDerate, MachineParams
from repro.workloads.kernels import KernelProfile, ProfileBatch

__all__ = [
    "GridKernel",
    "KernelMetrics",
    "evaluate_kernel",
    "evaluate_kernel_grid",
    "kernel_time",
    "smooth_max_array",
]


def _check_axes(
    n_cus: np.ndarray, freq: np.ndarray, bandwidth: np.ndarray
) -> None:
    """Every hardware-axis entry must lie in ``(0, inf)``; NaN fails
    both comparisons."""
    for axis in (n_cus, freq, bandwidth):
        if not ((axis > 0) & (axis < np.inf)).all():
            raise ValueError(
                "n_cus, freq and bandwidth must be finite and positive"
            )


def smooth_max_array(a: np.ndarray, b: np.ndarray, sharpness: float) -> np.ndarray:
    """Element-wise smooth maximum (scale-invariant log-sum-exp).

    Equals ``max(a, b)`` up to a ``log(2)/sharpness`` relative overshoot at
    ``a == b`` and converges to the hard max away from the knee.
    """
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = np.maximum(a, b)
    safe_m = np.where(m > 0, m, 1.0)
    ea = np.exp(sharpness * (a - m) / safe_m)
    eb = np.exp(sharpness * (b - m) / safe_m)
    out = m + (safe_m / sharpness) * np.log(ea + eb)
    return np.where(m > 0, out, m)


@dataclass(frozen=True)
class KernelMetrics:
    """Vectorized outputs of one kernel evaluation.

    Every field broadcasts to the shape of the input configuration arrays.
    Rates are averages over the kernel's execution.
    """

    time: np.ndarray
    """Kernel execution time, seconds."""

    flops_rate: np.ndarray
    """Achieved floating-point throughput, FLOP/s."""

    compute_time: np.ndarray
    """Pure compute-bound time component, seconds."""

    memory_time: np.ndarray
    """Memory-bound time component (bandwidth/latency), seconds."""

    dram_traffic: np.ndarray
    """Bytes moved to/from in-package DRAM over the kernel."""

    ext_traffic: np.ndarray
    """Bytes moved to/from external memory over the kernel."""

    llc_traffic: np.ndarray
    """Bytes requested at the LLC level (before cache filtering)."""

    hit_rate: np.ndarray
    """Effective LLC hit rate after thrashing."""

    bw_utilization: np.ndarray
    """In-package DRAM bandwidth utilization in [0, 1]."""

    cu_busy_fraction: np.ndarray
    """Fraction of time CUs are actively issuing (compute-bound share)."""

    @property
    def dram_rate(self) -> np.ndarray:
        """Average in-package DRAM bandwidth demand, B/s."""
        return self.dram_traffic / self.time

    @property
    def ext_rate(self) -> np.ndarray:
        """Average external-memory bandwidth demand, B/s."""
        return self.ext_traffic / self.time

    @property
    def llc_rate(self) -> np.ndarray:
        """Average LLC-level request bandwidth, B/s."""
        return self.llc_traffic / self.time


def _effective_hit_rate(
    profile: KernelProfile,
    n_cus: np.ndarray,
    freq: np.ndarray,
    machine: MachineParams,
) -> np.ndarray:
    """LLC hit rate after concurrency-driven thrashing.

    Pressure is the number of concurrently resident wavefront working
    sets — proportional to CU count relative to the reference machine
    (256 CUs), *not* to frequency: running the same CUs faster reissues
    the same footprint sooner, while adding CUs adds new working sets
    that compete for LLC capacity. (Frequency-driven degradation enters
    through the bandwidth-contention term instead, matching the paper's
    Section IV description of the two effects.) ``thrash_pressure == 0``
    keeps the hit rate flat; positive values shrink effective cache
    capacity as pressure grows.
    """
    del freq  # thrashing is capacity pressure, not rate pressure
    pressure = n_cus / machine.reference_cus
    decay = 1.0 + profile.thrash_pressure * np.power(
        pressure, machine.thrash_exponent
    )
    return profile.cache_hit_rate / decay


def evaluate_kernel(
    profile: KernelProfile,
    n_cus,
    freq,
    bandwidth,
    *,
    ext_fraction=None,
    machine: MachineParams | None = None,
    extra_latency: float = 0.0,
    ext_link: LinkDerate | None = None,
) -> KernelMetrics:
    """Evaluate *profile* on hardware configuration(s).

    Parameters
    ----------
    n_cus, freq, bandwidth:
        Scalars or broadcastable arrays: CU count, GPU frequency (Hz),
        in-package DRAM bandwidth (B/s); every entry finite and positive.
    ext_fraction:
        Fraction of DRAM traffic served by external memory. ``None``
        (default) evaluates the all-in-package scenario the paper's
        Figs. 4-6 and design-space exploration use; Fig. 8 sweeps this
        explicitly; the power study (Fig. 9) uses the profile's measured
        ``ext_memory_fraction``.
    machine:
        Technology constants; defaults to :class:`MachineParams`.
    extra_latency:
        Additional per-access latency in seconds, finite and
        non-negative (e.g., the chiplet organization's two TSV hops in
        the Fig. 7 study).
    ext_link:
        The external-memory bandwidth and latency in place of the
        machine's ``ext_bandwidth`` and ``ext_latency`` (e.g. derated by
        an inter-APU link tier); its fields broadcast against the
        output, so a fleet passes one external path per profile row.

    Returns
    -------
    KernelMetrics
        Vectorized timing, traffic, and activity results.
    """
    machine = machine or MachineParams()
    n_cus = np.asarray(n_cus, dtype=float)
    freq = np.asarray(freq, dtype=float)
    bandwidth = np.asarray(bandwidth, dtype=float)
    _check_axes(n_cus, freq, bandwidth)
    if ext_fraction is None:
        ext_fraction = 0.0
    m_ext = np.asarray(ext_fraction, dtype=float)
    if not ((m_ext >= 0) & (m_ext <= 1)).all():
        raise ValueError("ext_fraction must be in [0, 1]")
    lat = np.asarray(extra_latency, dtype=float)
    if not ((lat >= 0) & (lat < np.inf)).all():
        raise ValueError("extra_latency must be finite and non-negative")
    ext_path = machine  # a LinkDerate carries the same two fields
    if ext_link is not None:
        ext_path = ext_link
        for name in ("ext_bandwidth", "ext_latency"):
            value = np.asarray(getattr(ext_link, name), dtype=float)
            if not ((value > 0) & (value < np.inf)).all():
                raise ValueError(
                    f"ext_link.{name} must be finite and positive"
                )

    # --- compute bound ---------------------------------------------------
    cu_scaling = machine.reference_cus * np.power(
        n_cus / machine.reference_cus, profile.parallel_fraction
    )
    compute_rate = (
        profile.issue_efficiency
        * machine.flops_per_cu_cycle
        * freq
        * cu_scaling
    )
    t_compute = profile.flops / compute_rate

    # --- traffic after cache filtering -----------------------------------
    hit_rate = _effective_hit_rate(profile, n_cus, freq, machine)
    llc_traffic = profile.flops * profile.bytes_per_flop
    miss_traffic = llc_traffic * (1.0 - hit_rate)
    dram_traffic = miss_traffic * (1.0 - m_ext)
    ext_traffic = miss_traffic * m_ext

    # --- bandwidth bound --------------------------------------------------
    t_bw = dram_traffic / bandwidth + ext_traffic / ext_path.ext_bandwidth

    # One-shot utilization estimates for the contention terms (avoids a
    # fixed-point iteration; accurate because utilization only matters when
    # the kernel is near memory-bound, where t ~= t_bw). In-package DRAM
    # and the external network each see their own utilization: off-package
    # links saturate long before HBM does.
    t_first = np.maximum(t_compute, t_bw)
    # The in-package contention estimate is pinned at the all-in-package
    # operating point: every miss crosses the shared LLC<->memory path,
    # and spilling traffic to (much slower) external memory never makes
    # the in-package latency better — it only stretches execution. This
    # keeps performance monotonically non-increasing in the external
    # fraction, as the paper's Fig. 8 shows.
    t_first0 = np.maximum(t_compute, miss_traffic / bandwidth)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho_in = np.where(
            t_first0 > 0, (miss_traffic / bandwidth) / t_first0, 0.0
        )
        rho_ext = np.where(
            t_first > 0,
            (ext_traffic / ext_path.ext_bandwidth) / t_first,
            0.0,
        )
    rho_in = np.clip(rho_in, 0.0, 1.0)
    rho_ext = np.clip(rho_ext, 0.0, 1.0)
    latency_in = (machine.mem_latency + extra_latency) * (
        1.0
        + machine.contention_kappa
        * np.power(rho_in, machine.contention_exponent)
    )
    latency_ext = ext_path.ext_latency * (
        1.0
        + machine.contention_kappa
        * np.power(rho_ext, machine.contention_exponent)
    )

    # --- latency bound (Little's law) -------------------------------------
    misses_in = dram_traffic / machine.cacheline_bytes
    misses_ext = ext_traffic / machine.cacheline_bytes
    outstanding = n_cus * profile.mlp_per_cu
    t_latency = (
        profile.latency_sensitivity
        * (misses_in * latency_in + misses_ext * latency_ext)
        / outstanding
    )

    t_memory = smooth_max_array(t_bw, t_latency, machine.overlap_sharpness)
    time = smooth_max_array(t_compute, t_memory, machine.overlap_sharpness)

    with np.errstate(invalid="ignore", divide="ignore"):
        bw_util = np.where(time > 0, (dram_traffic / bandwidth) / time, 0.0)
        busy = np.where(time > 0, t_compute / time, 0.0)
    bw_util = np.clip(bw_util, 0.0, 1.0)
    busy = np.clip(busy, 0.0, 1.0)

    # The output shape spans the hardware axes *and* any profile axis a
    # ProfileBatch contributes: ``time`` already mixes every profile
    # column with every hardware axis, so folding its shape in covers
    # both the scalar-profile and the batched case.
    broadcast = np.broadcast(n_cus, freq, bandwidth, m_ext)
    shape = np.broadcast_shapes(broadcast.shape, np.shape(time))

    def _full(x) -> np.ndarray:
        # copyto broadcasts in C, without broadcast_to's ~5 us set-up.
        out = np.empty(shape)
        np.copyto(out, x)
        return out

    return KernelMetrics(
        time=_full(time),
        flops_rate=_full(profile.flops / time),
        compute_time=_full(t_compute),
        memory_time=_full(t_memory),
        dram_traffic=_full(dram_traffic),
        ext_traffic=_full(ext_traffic),
        llc_traffic=_full(llc_traffic),
        hit_rate=_full(hit_rate),
        bw_utilization=_full(bw_util),
        cu_busy_fraction=_full(busy),
    )


def kernel_time(
    profile: KernelProfile,
    n_cus,
    freq,
    bandwidth,
    **kwargs,
) -> np.ndarray:
    """Execution time only; see :func:`evaluate_kernel` for parameters."""
    return evaluate_kernel(profile, n_cus, freq, bandwidth, **kwargs).time


# ----------------------------------------------------------------------
# Fused whole-grid evaluation (the DSE tensor path)
# ----------------------------------------------------------------------


def _smooth_max_fused(
    a,
    b,
    sharpness: float,
    *,
    assume_positive: bool = False,
    m_out: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Single-exponential twin of :func:`smooth_max_array`.

    Computes ``m * (1 + log(1 + exp(sharpness * (mn / m - 1))) /
    sharpness)`` — algebraically equal to the oracle's symmetric
    two-exponential form (the max-side exponential is exactly 1), with
    the scale factored multiplicatively. Values agree with the oracle
    to a few ULPs; the smooth-max overshoot is tiny relative to ``m``,
    so the relative error of the *result* is far below 1e-12.

    Both branches execute the identical operation sequence for every
    element with ``m > 0`` (the fallback merely guards ``m <= 0``
    elements and selects ``m`` for them afterwards, as the oracle
    does), so data-dependent branch selection — e.g. one sub-grid
    taking the fast path while another falls back — cannot change any
    result bit. ``assume_positive`` skips the ``np.all`` scan when the
    caller has already proven ``m > 0`` structurally.

    ``m_out``/``out`` are optional scratch buffers for the max and the
    result (``out`` may alias ``b``). On the fast path the result *is*
    ``out``; the fallback returns a fresh array.
    """
    m = np.maximum(a, b, out=m_out)
    mn = np.minimum(a, b, out=out)
    if assume_positive or bool(np.all(m > 0)):
        d = np.divide(mn, m, out=mn)
        np.subtract(d, 1.0, out=d)
        np.multiply(d, sharpness, out=d)
        np.exp(d, out=d)
        np.add(d, 1.0, out=d)
        np.log(d, out=d)
        np.multiply(d, 1.0 / sharpness, out=d)
        np.add(d, 1.0, out=d)
        return np.multiply(m, d, out=d)
    safe_m = np.where(m > 0, m, 1.0)
    d = np.divide(mn, safe_m, out=mn)
    np.subtract(d, 1.0, out=d)
    np.multiply(d, sharpness, out=d)
    np.exp(d, out=d)
    np.add(d, 1.0, out=d)
    np.log(d, out=d)
    np.multiply(d, 1.0 / sharpness, out=d)
    np.add(d, 1.0, out=d)
    np.multiply(safe_m, d, out=d)
    return np.where(m > 0, d, m)


class GridKernel(NamedTuple):
    """Raw tensors of one fused grid evaluation.

    ``perf`` and ``time`` span the full ``(P, C, F, B)`` tensor;
    ``compute_time`` stays factored on ``(P, C, F, 1)`` and
    ``dram_traffic`` on ``(P, C, 1, 1)`` — each depends only on those
    axes. The factored fields are exactly what
    :func:`~repro.power.breakdown.node_power_grid` needs to finish the
    power roll-up in two more full-tensor passes.
    """

    perf: np.ndarray
    time: np.ndarray
    compute_time: np.ndarray
    dram_traffic: np.ndarray


def evaluate_kernel_grid(
    batch: ProfileBatch,
    cu_axis,
    freq_axis,
    bw_axis,
    *,
    machine: MachineParams | None = None,
) -> GridKernel:
    """Fused whole-grid twin of :func:`evaluate_kernel` for the DSE.

    Evaluates every profile row of *batch* against the full cartesian
    grid ``cu_axis x freq_axis x bw_axis`` (three 1-D axes) in one
    broadcast pass at the DSE operating point (all traffic in-package,
    no extra latency). Intermediates live on the smallest axis subspace
    that determines them — profile columns broadcast as ``(P, 1, 1,
    1)``, CU terms as ``(C, 1, 1)``, frequency terms as ``(F, 1)``,
    bandwidth terms as ``(B,)`` — and the full ``(P, C, F, B)`` tensor
    is touched by roughly a dozen memory-bound passes. That axis
    factoring, not the vectorization itself, is where the speedup over
    per-profile sweeps comes from.

    Equivalence contract with :func:`evaluate_kernel` (gated by
    ``check_tensor_eval`` and the tensor/point equivalence tests):

    * the arithmetic is the oracle's with exact identities elided
      (``ext_fraction = 0`` external terms, dead division guards —
      ``t_first0 >= t_compute = flops / compute_rate > 0`` and finite
      since flops, the issue efficiency and the axes are validated
      positive; a zero issue efficiency would give ``t_compute = +inf``
      and a non-finite node power) and products/sums *reassociated* to
      collapse full-tensor passes onto factored subspaces — e.g. the
      Little's-law chain becomes ``coef * (1 + kappa * rho**e)`` with
      ``coef`` precomputed on ``(P, C, 1, 1)``. Reassociation changes
      results by a few ULPs (well inside the equivalence tests' 1e-12
      rtol) and cannot flip DSE argmax selections: the catalog's
      closest top-2 gap and feasibility-boundary margin are both
      > 1e-5 relative, ~8 orders of magnitude above the noise.
    * sub-grid decompositions are exact: every coefficient is
      elementwise over the grid axes, and both
      :func:`_smooth_max_fused` branches are bit-identical where
      ``m > 0``, so evaluating a sub-grid produces bit-identical values
      to slicing the whole-grid result (the serving layer's union grids
      rely on this).
    """
    machine = machine or MachineParams()
    cu = np.asarray(cu_axis, dtype=float).reshape(-1, 1, 1)
    fq = np.asarray(freq_axis, dtype=float).reshape(-1, 1)
    bw = np.asarray(bw_axis, dtype=float).reshape(-1)
    _check_axes(cu, fq, bw)

    def col(name: str) -> np.ndarray:
        return getattr(batch, name).reshape(-1, 1, 1, 1)

    shape = (
        len(batch.names),
        cu.shape[0],
        fq.shape[0],
        bw.shape[0],
    )

    # --- compute bound [evaluate_kernel: cu_scaling / t_compute] ------
    cu_scaling = (
        machine.reference_cus
        * (cu / machine.reference_cus) ** col("parallel_fraction")
    )  # (P, C, 1, 1)
    compute_rate = (
        col("issue_efficiency")
        * machine.flops_per_cu_cycle
        * fq
        * cu_scaling
    )  # (P, C, F, 1)
    t_compute = col("flops") / compute_rate  # (P, C, F, 1)

    # --- traffic after cache filtering [_effective_hit_rate] ----------
    pressure = cu / machine.reference_cus  # (C, 1, 1)
    decay = (
        1.0 + col("thrash_pressure") * pressure**machine.thrash_exponent
    )  # (P, C, 1, 1)
    hit_rate = col("cache_hit_rate") / decay  # (P, C, 1, 1)
    llc_traffic = col("flops") * col("bytes_per_flop")  # (P, 1, 1, 1)
    miss_traffic = llc_traffic * (1.0 - hit_rate)  # (P, C, 1, 1)
    # ext_fraction == 0: dram_traffic = miss_traffic * 1.0, exactly.
    dram_traffic = miss_traffic

    # --- bandwidth bound (the external term is an exact + 0.0) --------
    t_bw = dram_traffic / bw  # (P, C, 1, B)

    # Materialize the two factored time components once: every later
    # full-tensor op then runs NumPy's contiguous inner loops instead
    # of repeating a strided broadcast (~2x per op on the short
    # bandwidth axis). Four full-tensor buffers are all the pipeline
    # needs; two of them leave as the perf/time results.
    tc_full = np.empty(shape)
    np.copyto(tc_full, t_compute)
    tbw_full = np.empty(shape)
    np.copyto(tbw_full, t_bw)
    work = np.empty(shape)
    m_buf = np.empty(shape)

    # --- contention [t_first0 / rho_in] -------------------------------
    # The oracle's rho guards are dead here: t_first0 >= t_compute > 0
    # and 0 <= t_bw / t_first0 <= 1 by construction, so where() and
    # clip() are identities.
    t_first0 = np.maximum(tc_full, tbw_full, out=work)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.divide(tbw_full, t_first0, out=t_first0)
    if machine.contention_exponent == 4.0:
        # The default exponent as two squarings: about a third of
        # np.power's time on a Table-II-scale tensor.
        np.multiply(rho, rho, out=rho)
        np.multiply(rho, rho, out=rho)
    else:
        np.power(rho, machine.contention_exponent, out=rho)
    np.multiply(rho, machine.contention_kappa, out=rho)
    np.add(rho, 1.0, out=rho)  # 1 + kappa * rho**exponent

    # --- latency bound [Little's law; external miss term exactly 0] ---
    # t_latency = sensitivity * misses * latency / outstanding with
    # latency = mem_latency * (1 + kappa rho^e) reassociates into one
    # factored coefficient times the full contention tensor.
    misses_in = dram_traffic / machine.cacheline_bytes  # (P, C, 1, 1)
    outstanding = cu * col("mlp_per_cu")  # (P, C, 1, 1)
    lat_coef = (
        col("latency_sensitivity")
        * misses_in
        * machine.mem_latency
        / outstanding
    )  # (P, C, 1, 1)
    t_lat = np.multiply(lat_coef, rho, out=rho)

    # --- overlap ------------------------------------------------------
    # t_lat >= 0, so max(t_bw, t_lat) > 0 wherever t_bw > 0; prove
    # positivity on the tiny factored traffic tensor instead of
    # scanning the full one.
    traffic_positive = bool(np.all(dram_traffic > 0))
    t_memory = _smooth_max_fused(
        tbw_full,
        t_lat,
        machine.overlap_sharpness,
        assume_positive=traffic_positive,
        m_out=m_buf,
        out=t_lat,
    )
    # max(t_compute, t_memory) >= t_compute > 0 always.
    time = _smooth_max_fused(
        tc_full,
        t_memory,
        machine.overlap_sharpness,
        assume_positive=True,
        m_out=m_buf,
        out=t_memory,
    )

    # [KernelMetrics.flops_rate]; tbw_full is dead after the first
    # smooth max, so it doubles as the perf output buffer.
    perf = np.divide(col("flops"), time, out=tbw_full)

    return GridKernel(
        perf=perf,
        time=time,
        compute_time=t_compute,
        dram_traffic=dram_traffic,
    )
