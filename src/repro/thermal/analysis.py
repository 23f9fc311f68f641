"""High-level thermal analysis: node evaluation -> temperatures.

Maps a :class:`~repro.power.breakdown.PowerBreakdown` onto the EHP
floorplan (CU power under the DRAM stacks, CPU power in the central
clusters, NoC power in the interposer layer) and solves the grid for the
Fig. 10 metric — peak in-package DRAM temperature — and the Fig. 11
heat map of the bottom-most DRAM die.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.power.breakdown import PowerBreakdown
from repro.thermal.floorplan import EHPFloorplan
from repro.thermal.grid import TemperatureField, ThermalGrid
from repro.thermal.stack import LayerStack

__all__ = ["ThermalModel", "ThermalReport", "DRAM_LIMIT_C"]

DRAM_LIMIT_C = 85.0
"""JEDEC refresh-rate limit the paper designs against (Section V-D)."""


@dataclass(frozen=True)
class ThermalReport:
    """Solved thermal state for one workload/configuration."""

    field: TemperatureField
    peak_dram_c: float
    peak_compute_c: float
    mean_dram_c: float

    @property
    def dram_within_limit(self) -> bool:
        """Does the hottest DRAM cell respect the 85 C refresh limit?"""
        return self.peak_dram_c <= DRAM_LIMIT_C

    @property
    def dram_headroom_c(self) -> float:
        """Margin to the refresh limit (negative when violated)."""
        return DRAM_LIMIT_C - self.peak_dram_c

    def dram_heatmap(self) -> np.ndarray:
        """The bottom-most DRAM die temperature map (Fig. 11)."""
        return self.field.layer("dram")


class ThermalModel:
    """Floorplan + grid + power-placement rules."""

    def __init__(
        self,
        floorplan: EHPFloorplan | None = None,
        stack: LayerStack | None = None,
        nx: int = 66,
        ny: int = 22,
    ):
        self.floorplan = floorplan or EHPFloorplan()
        self.stack = stack or LayerStack()
        self.grid = ThermalGrid(
            self.floorplan.width_mm,
            self.floorplan.depth_mm,
            nx=nx,
            ny=ny,
            stack=self.stack,
        )
        # The floorplan and grid are fixed at construction, so the
        # rasterized GPU/CPU masks are too; cache them on first use.
        self._masks: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _region_mask(self, regions) -> np.ndarray:
        """Boolean (ny, nx) mask of cells whose centre is inside any of
        *regions*.

        Vectorized rasterization: the cell-centre coordinate vectors are
        computed with the same elementwise arithmetic as the reference
        (``(i + 0.5) * dx_mm``), and each axis-aligned region becomes an
        outer AND of two interval tests, so the result is bit-identical
        to :meth:`_region_mask_reference`.
        """
        dx_mm = self.floorplan.width_mm / self.grid.nx
        dy_mm = self.floorplan.depth_mm / self.grid.ny
        x = (np.arange(self.grid.nx) + 0.5) * dx_mm
        y = (np.arange(self.grid.ny) + 0.5) * dy_mm
        mask = np.zeros((self.grid.ny, self.grid.nx), dtype=bool)
        for r in regions:
            # Region.contains: inclusive lower bound, exclusive upper.
            in_x = (r.x0 <= x) & (x < r.x1)
            in_y = (r.y0 <= y) & (y < r.y1)
            mask |= in_y[:, None] & in_x[None, :]
        return mask

    def _region_mask_reference(self, regions) -> np.ndarray:
        """Per-cell double loop (the original implementation).

        Kept as the readable specification of the rasterization and as
        the oracle the vectorized :meth:`_region_mask` is tested against.
        """
        mask = np.zeros((self.grid.ny, self.grid.nx), dtype=bool)
        dx_mm = self.floorplan.width_mm / self.grid.nx
        dy_mm = self.floorplan.depth_mm / self.grid.ny
        for j in range(self.grid.ny):
            for i in range(self.grid.nx):
                x = (i + 0.5) * dx_mm
                y = (j + 0.5) * dy_mm
                if any(r.contains(x, y) for r in regions):
                    mask[j, i] = True
        return mask

    def _cached_mask(self, kind: str) -> np.ndarray:
        mask = self._masks.get(kind)
        if mask is None:
            regions = getattr(self.floorplan, f"{kind}_regions")
            mask = self._region_mask(regions)
            self._masks[kind] = mask
        return mask

    def build_power_maps(self, power: PowerBreakdown) -> np.ndarray:
        """Distribute a node power breakdown over the grid layers.

        Only EHP-package components produce heat here; the external
        memory network dissipates on its own modules. A breakdown of
        scalars gives ``(n_layers, ny, nx)`` maps; one of shape-``S``
        arrays (a sweep from :meth:`NodeModel.evaluate_arrays`) gives
        ``S + (n_layers, ny, nx)``, each map bit-identical to its
        point's.
        """
        cu_power = np.asarray(power.cu_dynamic + power.cu_static, dtype=float)
        cpu_power = np.asarray(power.cpu, dtype=float)
        noc_power = np.asarray(
            power.noc_dynamic + power.noc_static, dtype=float
        )
        dram_power = np.asarray(
            power.dram3d_dynamic + power.dram3d_static, dtype=float
        )
        batch = np.broadcast_shapes(
            cu_power.shape, cpu_power.shape, noc_power.shape,
            dram_power.shape,
        )
        shape = (self.stack.n_layers, self.grid.ny, self.grid.nx)
        maps = np.zeros(batch + shape)
        gpu_mask = self._cached_mask("gpu")
        cpu_mask = self._cached_mask("cpu")
        if not gpu_mask.any() or not cpu_mask.any():
            raise RuntimeError("floorplan rasterized to empty masks")

        compute = self.stack.layer_index("compute")
        interposer = self.stack.layer_index("interposer")
        dram = self.stack.layer_index("dram")

        maps[..., compute, gpu_mask] += (cu_power / gpu_mask.sum())[..., None]
        maps[..., compute, cpu_mask] += (cpu_power / cpu_mask.sum())[..., None]
        maps[..., interposer, :, :] += (
            noc_power / (self.grid.ny * self.grid.nx)
        )[..., None, None]
        maps[..., dram, gpu_mask] += (dram_power / gpu_mask.sum())[..., None]
        return maps

    @staticmethod
    def _report(field: TemperatureField) -> ThermalReport:
        return ThermalReport(
            field=field,
            peak_dram_c=field.peak("dram"),
            peak_compute_c=field.peak("compute"),
            mean_dram_c=field.mean("dram"),
        )

    def analyze(self, power: PowerBreakdown) -> ThermalReport:
        """Solve the package temperatures for one power breakdown."""
        return self._report(self.grid.solve(self.build_power_maps(power)))

    def analyze_many(
        self, powers: Sequence[PowerBreakdown]
    ) -> list[ThermalReport]:
        """Solve a batch of power breakdowns in one modal solve.

        Equivalent to ``[self.analyze(p) for p in powers]`` (bit for
        bit) but the maps go through :meth:`ThermalGrid.solve_many`
        together, which is what the Fig. 10 sweep (two solves per
        application) wants.
        """
        if not powers:
            return []
        batch = np.stack([self.build_power_maps(p) for p in powers])
        return [self._report(f) for f in self.grid.solve_many(batch)]
