"""Compact thermal model of the EHP package (Figs. 10 and 11).

A HotSpot-style RC model: the package floorplan is gridded, each grid
cell carries a vertical stack of layers (active interposer, compute
die, 3D DRAM), and heat conducts laterally within layers and vertically
between them and into the heatsink. Because every layer is uniform, the
solver diagonalizes the conductance network exactly with the DCT and
solves for the steady-state or backward-Euler temperature field of a
power map mode by mode; the assembled sparse matrix stays as the
oracle.

The paper's constraint is the DRAM retention limit: in-package 3D DRAM
must stay below 85 C with a high-end air cooler at 50 C ambient.
"""

from repro.thermal.floorplan import EHPFloorplan, Region
from repro.thermal.stack import LayerStack, ThermalLayer
from repro.thermal.grid import (
    TemperatureField,
    TemperatureFieldBatch,
    ThermalGrid,
)
from repro.thermal.analysis import ThermalModel, ThermalReport
from repro.thermal.transient import (
    PowerPhase,
    TransientSolver,
    TransientTrace,
)

__all__ = [
    "EHPFloorplan",
    "Region",
    "LayerStack",
    "ThermalLayer",
    "ThermalGrid",
    "TemperatureField",
    "TemperatureFieldBatch",
    "ThermalModel",
    "ThermalReport",
    "PowerPhase",
    "TransientSolver",
    "TransientTrace",
]
