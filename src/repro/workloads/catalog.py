"""The Table I application catalog.

Eight proxy applications, as the paper studies: one compute-intensive
throughput probe (MaxFlops), three balanced kernels (CoMD, CoMD-LJ,
HPGMG), and four memory-intensive kernels (LULESH, MiniAMR, XSBench,
SNAP). Only the dominant kernel of each application is modeled, matching
the paper's reporting convention.

The numeric profile parameters are **calibrated**: starting from
category-level estimates, :mod:`repro.workloads.calibration` searches each
profile's parameters so that the design-space exploration reproduces the
paper's Table II per-application optima and the Section V best-mean
configuration (320 CUs / 1000 MHz / 3 TB/s). The paper's own profiles come
from hardware measurement; these are the equivalent observable surface.

Table II itself — each application's published optimum — sits next to
Table I here as :data:`PAPER_TABLE2`, so the drivers that read it do not
load the calibration search (and its optimizer) to do so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.core.config import EHPConfig
from repro.util.units import MHZ, TB
from repro.workloads.kernels import KernelCategory, KernelProfile

__all__ = [
    "APPLICATIONS",
    "PAPER_TABLE2",
    "CalibrationTarget",
    "application_names",
    "get_application",
    "iter_applications",
    "table1_rows",
]

_CALIBRATION_NOTE = (
    "calibrated to Table II optimum via repro.workloads.calibration"
)

APPLICATIONS: dict[str, KernelProfile] = {
    "MaxFlops": KernelProfile(
        name="MaxFlops",
        category=KernelCategory.COMPUTE_INTENSIVE,
        description="Measures maximum FP throughput",
        flops=2.0e13,
        bytes_per_flop=0.009316208967302177,
        parallel_fraction=0.9866938260920906,
        cache_hit_rate=0.5023032015748461,
        thrash_pressure=0.05501541912456795,
        latency_sensitivity=0.016612950824557216,
        mlp_per_cu=64.0240594122369,
        ext_memory_fraction=0.05,
        cu_utilization=0.9167010208449466,
        issue_efficiency=0.907,
        write_fraction=0.10,
        compression_ratio=1.10,
        footprint_bytes=2.0e9,
        provenance=_CALIBRATION_NOTE,
    ),
    "CoMD": KernelProfile(
        name="CoMD",
        category=KernelCategory.BALANCED,
        description="Molecular-dynamics algorithms (Embedded Atom)",
        flops=2.0e13,
        bytes_per_flop=0.2741589467649608,
        parallel_fraction=0.35127303279336664,
        cache_hit_rate=0.6940709027534337,
        thrash_pressure=0.45542930886083155,
        latency_sensitivity=0.5069419748123623,
        mlp_per_cu=34.83834337666097,
        ext_memory_fraction=0.46,
        cu_utilization=0.21612850242018522,
        issue_efficiency=0.85,
        write_fraction=0.25,
        compression_ratio=1.35,
        footprint_bytes=3.2e10,
        provenance=_CALIBRATION_NOTE,
    ),
    "CoMD-LJ": KernelProfile(
        name="CoMD-LJ",
        category=KernelCategory.BALANCED,
        description="Molecular-dynamics algorithms (Lennard-Jones)",
        flops=2.0e13,
        bytes_per_flop=0.41175106574336406,
        parallel_fraction=0.42515029433069634,
        cache_hit_rate=0.8852581739965804,
        thrash_pressure=0.18309640564339408,
        latency_sensitivity=0.49460909659626046,
        mlp_per_cu=15.935750011279858,
        ext_memory_fraction=0.50,
        cu_utilization=0.5412644047422236,
        issue_efficiency=0.85,
        write_fraction=0.25,
        compression_ratio=1.35,
        footprint_bytes=3.2e10,
        provenance=_CALIBRATION_NOTE,
    ),
    "HPGMG": KernelProfile(
        name="HPGMG",
        category=KernelCategory.BALANCED,
        description="Ranks HPC systems",
        flops=2.0e13,
        bytes_per_flop=0.375899421908302,
        parallel_fraction=0.8112907728116516,
        cache_hit_rate=0.8487490013383718,
        thrash_pressure=0.15349370247458582,
        latency_sensitivity=0.48339304285729606,
        mlp_per_cu=11.756608946258691,
        ext_memory_fraction=0.60,
        cu_utilization=0.49023850385878964,
        issue_efficiency=0.85,
        write_fraction=0.35,
        compression_ratio=1.50,
        footprint_bytes=1.0e11,
        provenance=_CALIBRATION_NOTE,
    ),
    "LULESH": KernelProfile(
        name="LULESH",
        category=KernelCategory.MEMORY_INTENSIVE,
        description="Hydrodynamic simulation",
        flops=2.0e13,
        bytes_per_flop=0.18902079214536305,
        parallel_fraction=0.6940919959068627,
        cache_hit_rate=0.1874716718368572,
        thrash_pressure=0.8586725217190507,
        latency_sensitivity=0.44329365383256236,
        mlp_per_cu=38.641689905242714,
        ext_memory_fraction=0.70,
        cu_utilization=0.23158454545028864,
        issue_efficiency=0.85,
        write_fraction=0.40,
        compression_ratio=1.60,
        footprint_bytes=1.5e11,
        provenance=_CALIBRATION_NOTE,
    ),
    "MiniAMR": KernelProfile(
        name="MiniAMR",
        category=KernelCategory.MEMORY_INTENSIVE,
        description="3D stencil computation with adaptive mesh refinement",
        flops=2.0e13,
        bytes_per_flop=0.22029908473360518,
        parallel_fraction=0.9549907014651343,
        cache_hit_rate=0.5112073613400852,
        thrash_pressure=0.6379688932632352,
        latency_sensitivity=0.5884834041627189,
        mlp_per_cu=45.29889583394138,
        ext_memory_fraction=0.75,
        cu_utilization=0.2244065498608605,
        issue_efficiency=0.85,
        write_fraction=0.35,
        compression_ratio=1.50,
        footprint_bytes=2.0e11,
        provenance=_CALIBRATION_NOTE,
    ),
    "XSBench": KernelProfile(
        name="XSBench",
        category=KernelCategory.MEMORY_INTENSIVE,
        description="Monte Carlo particle transport simulation",
        flops=2.0e13,
        bytes_per_flop=0.2410642815750328,
        parallel_fraction=0.7483519687789064,
        cache_hit_rate=0.7235610484844084,
        thrash_pressure=0.6469511389075779,
        latency_sensitivity=0.6470919007825218,
        mlp_per_cu=40.48066937388347,
        ext_memory_fraction=0.85,
        cu_utilization=0.24405690883139114,
        issue_efficiency=0.85,
        write_fraction=0.10,
        compression_ratio=1.20,
        footprint_bytes=2.5e11,
        provenance=_CALIBRATION_NOTE,
    ),
    "SNAP": KernelProfile(
        name="SNAP",
        category=KernelCategory.MEMORY_INTENSIVE,
        description="Discrete ordinates neutral particle transport application",
        flops=2.0e13,
        bytes_per_flop=2.5,
        parallel_fraction=0.3109823592209462,
        cache_hit_rate=0.3023358826515906,
        thrash_pressure=0.6738350656538254,
        latency_sensitivity=0.6552089545343973,
        mlp_per_cu=69.97528754373985,
        ext_memory_fraction=0.89,
        cu_utilization=0.98,
        issue_efficiency=0.85,
        write_fraction=0.35,
        compression_ratio=1.45,
        footprint_bytes=1.8e11,
        provenance=_CALIBRATION_NOTE,
    ),
}
"""Name -> calibrated profile for the paper's eight applications."""


@dataclass(frozen=True)
class CalibrationTarget:
    """One application's published optimum (Table II row)."""

    n_cus: int
    freq_mhz: int
    bw_tbps: int
    benefit_pct: float
    benefit_opt_pct: float

    @property
    def config(self) -> EHPConfig:
        """The target as an :class:`EHPConfig`."""
        return EHPConfig(
            n_cus=self.n_cus,
            gpu_freq=self.freq_mhz * MHZ,
            bandwidth=self.bw_tbps * TB,
        )


PAPER_TABLE2: Mapping[str, CalibrationTarget] = {
    "LULESH": CalibrationTarget(256, 1100, 4, 31.2, 38.0),
    "MiniAMR": CalibrationTarget(256, 1200, 4, 47.3, 54.3),
    "XSBench": CalibrationTarget(224, 1400, 5, 44.9, 47.5),
    "SNAP": CalibrationTarget(384, 700, 5, 18.2, 30.2),
    "CoMD": CalibrationTarget(192, 1500, 6, 40.3, 49.8),
    "CoMD-LJ": CalibrationTarget(224, 1300, 6, 29.6, 39.3),
    "HPGMG": CalibrationTarget(352, 900, 7, 34.9, 37.9),
    "MaxFlops": CalibrationTarget(384, 925, 1, 10.7, 19.9),
}
"""The paper's Table II, keyed by application name."""


def application_names() -> list[str]:
    """Catalog names in the paper's Table I order."""
    return list(APPLICATIONS)


def get_application(name: str) -> KernelProfile:
    """Look up a profile by name; raises ``KeyError`` with suggestions."""
    try:
        return APPLICATIONS[name]
    except KeyError:
        known = ", ".join(APPLICATIONS)
        raise KeyError(f"unknown application {name!r}; known: {known}") from None


def iter_applications() -> Iterator[KernelProfile]:
    """Iterate all eight profiles in catalog order."""
    return iter(APPLICATIONS.values())


def table1_rows() -> list[tuple[str, str, str]]:
    """Table I's (category, application, description) rows."""
    return [
        (str(p.category), p.name, p.description)
        for p in APPLICATIONS.values()
    ]
