"""Vertical layer stack of the 3D-integrated package.

Bottom to top: package substrate (to board), active interposer, compute
die (GPU or CPU chiplet), then — over GPU regions only — four stacked
DRAM dies, and finally TIM + heat spreader + air-cooled heatsink. Each
layer is described by thickness and thermal conductivity; the grid
solver turns these into vertical/lateral conductances per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.config import _finite_positive

__all__ = ["ThermalLayer", "LayerStack"]


@dataclass(frozen=True)
class ThermalLayer:
    """One physical layer of the stack.

    ``conductivity`` is W/(m.K); ``thickness`` in metres. ``heat_source``
    marks layers that can carry a power map.
    ``volumetric_heat_capacity`` is J/(m^3.K) and only matters to the
    transient solver — the steady-state solve never reads it.
    """

    name: str
    thickness_m: float
    conductivity: float
    heat_source: bool = False
    volumetric_heat_capacity: float = 1.63e6  # silicon, ~rho * c_p

    def __post_init__(self) -> None:
        for field_name in (
            "thickness_m", "conductivity", "volumetric_heat_capacity"
        ):
            value = getattr(self, field_name)
            if not _finite_positive(value):
                raise ValueError(
                    f"layer {self.name}: {field_name} must be finite and "
                    f"positive, got {value!r}"
                )

    def vertical_resistance(self, area_m2: float) -> float:
        """Conduction resistance through the layer for one cell, K/W."""
        if area_m2 <= 0:
            raise ValueError("area must be positive")
        return self.thickness_m / (self.conductivity * area_m2)

    def lateral_resistance(self, length_m: float, cross_m2: float) -> float:
        """Conduction resistance along the layer between cell centres."""
        if length_m <= 0 or cross_m2 <= 0:
            raise ValueError("geometry must be positive")
        return length_m / (self.conductivity * cross_m2)


_SILICON = 120.0  # W/(m.K), doped silicon at operating temperature
_DRAM_EFFECTIVE = 25.0  # silicon + bonding/TSV layers, effective
_INTERPOSER = 100.0


def _default_layers() -> tuple[ThermalLayer, ...]:
    return (
        ThermalLayer("interposer", 100e-6, _INTERPOSER, heat_source=True),
        ThermalLayer("compute", 150e-6, _SILICON, heat_source=True),
        ThermalLayer("dram", 4 * 60e-6, _DRAM_EFFECTIVE, heat_source=True),
    )


@dataclass(frozen=True)
class LayerStack:
    """The modeled stack plus its boundary resistances.

    ``sink_resistance`` is the area-normalized resistance from the top
    of the stack to ambient through TIM, spreader and the high-end air
    cooler (K.m^2/W); ``board_resistance`` the same downward through the
    package to the board. Values are calibrated so the best-mean
    configuration lands in Fig. 10's 55-80 C range at 50 C ambient.
    """

    layers: tuple[ThermalLayer, ...] = field(default_factory=_default_layers)
    sink_resistance_km2w: float = 2.5e-4
    board_resistance_km2w: float = 2.0e-3
    ambient_c: float = 50.0

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("stack needs at least one layer")
        for field_name in ("sink_resistance_km2w", "board_resistance_km2w"):
            value = getattr(self, field_name)
            if not _finite_positive(value):
                raise ValueError(
                    f"{field_name} must be finite and positive, got {value!r}"
                )
        if not math.isfinite(self.ambient_c):
            raise ValueError(
                f"ambient_c must be finite, got {self.ambient_c!r}"
            )

    @property
    def n_layers(self) -> int:
        """Number of modeled conduction layers."""
        return len(self.layers)

    def layer_index(self, name: str) -> int:
        """Index of a named layer; raises ``KeyError`` if absent."""
        for i, layer in enumerate(self.layers):
            if layer.name == name:
                return i
        raise KeyError(f"no layer named {name!r}")
