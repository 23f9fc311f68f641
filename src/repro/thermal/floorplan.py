"""The EHP package floorplan (Fig. 2's physical arrangement).

Left to right: two GPU clusters, two central CPU clusters, two more GPU
clusters. Each GPU cluster holds two GPU chiplets (each under a DRAM
stack); each CPU cluster holds four CPU chiplets. Regions are axis-
aligned rectangles in millimetres; the thermal grid rasterizes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.core.config import _finite_positive

__all__ = ["Region", "EHPFloorplan"]


@dataclass(frozen=True)
class Region:
    """An axis-aligned rectangle on the package, in millimetres."""

    name: str
    kind: str  # "gpu", "cpu", or "interposer"
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        for name in ("x0", "y0", "x1", "y1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(
                    f"region {self.name}: {name} must be finite, "
                    f"got {value!r}"
                )
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError(f"degenerate region {self.name}")

    @property
    def area_mm2(self) -> float:
        """Rectangle area in mm^2."""
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def contains(self, x: float, y: float) -> bool:
        """Point-in-rectangle test (inclusive lower, exclusive upper)."""
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1


class EHPFloorplan:
    """The standard EHP floorplan.

    The package is ``width_mm`` x ``depth_mm``; GPU chiplets are laid out
    in four 2-chiplet clusters flanking two central 4-chiplet CPU
    clusters, matching Fig. 2. DRAM stacks sit directly above GPU
    chiplets, so the GPU regions double as the DRAM-layer footprint.
    """

    def __init__(self, width_mm: float = 66.0, depth_mm: float = 22.0):
        for name, value in (("width_mm", width_mm), ("depth_mm", depth_mm)):
            if not _finite_positive(value):
                raise ValueError(
                    f"{name} must be finite and positive, got {value!r}"
                )
        self.width_mm = width_mm
        self.depth_mm = depth_mm
        self.gpu_regions: list[Region] = []
        self.cpu_regions: list[Region] = []
        self._build()

    def _build(self) -> None:
        # Six equal cluster columns: G G C C G G.
        col_w = self.width_mm / 6.0
        margin = 0.5
        gpu_cols = [0, 1, 4, 5]
        cpu_cols = [2, 3]
        gpu_index = 0
        for col in gpu_cols:
            x0 = col * col_w + margin
            x1 = (col + 1) * col_w - margin
            # Two GPU chiplets per cluster, stacked along the depth.
            half = self.depth_mm / 2.0
            for row in range(2):
                y0 = row * half + margin
                y1 = (row + 1) * half - margin
                self.gpu_regions.append(
                    Region(f"gpu{gpu_index}", "gpu", x0, y0, x1, y1)
                )
                gpu_index += 1
        cpu_index = 0
        for col in cpu_cols:
            x0 = col * col_w + margin
            x1 = (col + 1) * col_w - margin
            quarter = self.depth_mm / 4.0
            for row in range(4):
                y0 = row * quarter + margin / 2.0
                y1 = (row + 1) * quarter - margin / 2.0
                self.cpu_regions.append(
                    Region(f"cpu{cpu_index}", "cpu", x0, y0, x1, y1)
                )
                cpu_index += 1

    def iter_regions(self) -> Iterator[Region]:
        """All chiplet regions, GPUs first."""
        yield from self.gpu_regions
        yield from self.cpu_regions

    def region_at(self, x: float, y: float) -> Region | None:
        """The chiplet region containing (x, y), or None (interposer)."""
        for region in self.iter_regions():
            if region.contains(x, y):
                return region
        return None

    @property
    def gpu_area_mm2(self) -> float:
        """Total GPU silicon footprint."""
        return sum(r.area_mm2 for r in self.gpu_regions)

    @property
    def cpu_area_mm2(self) -> float:
        """Total CPU silicon footprint."""
        return sum(r.area_mm2 for r in self.cpu_regions)
