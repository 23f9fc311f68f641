"""Voltage-frequency curve with a near-threshold floor.

The paper's methodology uses in-house technology-scaling models to project
voltage-frequency curves for the exascale process node (Section III). Only
the *relative* shape of the curve enters any result, so we model it as a
linear V(f) above a floor voltage — the standard first-order approximation
in the DVFS literature — anchored at the paper's nominal operating point
(1 GHz). Near-threshold computing (Section V-E) lowers the whole curve by a
constant factor while holding frequency, which is exactly how the paper
describes its NTC result ("operating the CUs near the threshold voltage at
as high as 1 GHz").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["VFCurve"]


@dataclass(frozen=True)
class VFCurve:
    """Linear voltage-frequency curve ``V(f) = v_ref + slope * (f - f_ref)``.

    Attributes
    ----------
    v_ref:
        Supply voltage at the reference frequency, volts.
    f_ref:
        Reference frequency, Hz (the paper's nominal 1 GHz point).
    slope_per_ghz:
        Voltage increase per GHz of frequency above the reference.
    v_floor:
        Minimum achievable supply voltage (retention/stability limit).
    voltage_scale:
        Multiplier applied to the whole curve; near-threshold operation
        sets this below 1. The floor still applies after scaling.
    """

    v_ref: float = 0.80
    f_ref: float = 1.0e9
    slope_per_ghz: float = 0.30
    v_floor: float = 0.60
    voltage_scale: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.v_ref <= 0 or self.f_ref <= 0:
            raise ValueError("v_ref and f_ref must be positive")
        if self.v_floor <= 0 or self.v_floor > self.v_ref:
            raise ValueError("v_floor must be in (0, v_ref]")
        if not 0.5 <= self.voltage_scale <= 1.5:
            raise ValueError("voltage_scale outside plausible range [0.5, 1.5]")
        if self.slope_per_ghz < 0:
            raise ValueError("slope_per_ghz must be non-negative")

    def voltage(self, freq) -> np.ndarray:
        """Supply voltage required at *freq* (Hz; scalar or array)."""
        freq = np.asarray(freq, dtype=float)
        if np.any(freq <= 0):
            raise ValueError("freq must be positive")
        v = self.v_ref + self.slope_per_ghz * (freq - self.f_ref) / 1.0e9
        v = v * self.voltage_scale
        return np.maximum(v, self.v_floor)

    def static_voltage_factor(self, freq) -> np.ndarray:
        """Leakage scaling factor relative to the reference point.

        Linear in the unscaled V(f) (channel DIBL to first order), but
        cubic in any near-threshold ``voltage_scale`` — lowering the
        rail toward threshold cuts leakage disproportionately, which is
        a large part of NTC's appeal.
        """
        freq = np.asarray(freq, dtype=float)
        if np.any(freq <= 0):
            raise ValueError("freq must be positive")
        v_unscaled = np.maximum(
            self.v_ref + self.slope_per_ghz * (freq - self.f_ref) / 1.0e9,
            self.v_floor,
        )
        return (v_unscaled / self.v_ref) * self.voltage_scale**3

    def with_voltage_scale(self, scale: float) -> "VFCurve":
        """Return a curve with the given overall voltage multiplier."""
        return VFCurve(
            v_ref=self.v_ref,
            f_ref=self.f_ref,
            slope_per_ghz=self.slope_per_ghz,
            v_floor=self.v_floor,
            voltage_scale=scale,
        )

    def dynamic_power_scale(self, freq) -> np.ndarray:
        """``V(f)^2 * f`` normalized to the reference point.

        The canonical CMOS dynamic-power scaling factor relative to
        operating at ``(f_ref, v_ref)`` with ``voltage_scale == 1``.
        """
        v = self.voltage(freq)
        freq = np.asarray(freq, dtype=float)
        ratio = v / self.v_ref
        return ratio * ratio * (freq / self.f_ref)
