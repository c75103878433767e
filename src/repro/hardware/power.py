"""Energy model for the biometric touch-display (paper section III-A).

The paper argues that *opportunistic* capture — fingerprint sensors idle
until the touchscreen reports a touch inside a sensor's footprint — "reduces
power consumption overhead" versus keeping sensors scanning.  This model
prices both operating disciplines so benchmark E12 can quantify the claim.

Energy coefficients are order-of-magnitude values for low-temperature
poly-Si TFT arrays (nJ-per-cell conversion, pJ-per-bit I/O, uW-scale leakage
per array); absolute joules are not the point — the *ratio* between
always-on and opportunistic operation is, and it is dominated by duty cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sensor_array import CaptureResult
from .specs import SensorSpec

__all__ = ["PowerModel", "EnergyBreakdown"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Joules spent over an accounting interval, by component."""

    sense_j: float
    transfer_j: float
    leakage_j: float

    @property
    def total_j(self) -> float:
        """Sum of all energy components."""
        return self.sense_j + self.transfer_j + self.leakage_j

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            self.sense_j + other.sense_j,
            self.transfer_j + other.transfer_j,
            self.leakage_j + other.leakage_j,
        )


class PowerModel:
    """Prices sensor operation in joules."""

    #: Readout I/O energy per transferred bit (pJ).
    TRANSFER_PJ_PER_BIT = 10.0
    #: Array leakage while capturing and while idle (uW).
    ACTIVE_LEAKAGE_UW = 500.0
    IDLE_LEAKAGE_UW = 5.0

    def __init__(self, sense_nj_per_cell: float = 2.0) -> None:
        if sense_nj_per_cell < 0:
            raise ValueError("sense energy must be non-negative")
        self.sense_nj_per_cell = float(sense_nj_per_cell)

    def capture_energy(self, result: CaptureResult) -> EnergyBreakdown:
        """Energy of one capture (sense + transfer + active leakage)."""
        return EnergyBreakdown(
            sense_j=result.cells_sensed * self.sense_nj_per_cell * 1e-9,
            transfer_j=result.bits_transferred * self.TRANSFER_PJ_PER_BIT * 1e-12,
            leakage_j=result.time_s * self.ACTIVE_LEAKAGE_UW * 1e-6,
        )

    def opportunistic_session_energy(self, captures: list[CaptureResult],
                                     session_s: float) -> EnergyBreakdown:
        """Paper's discipline: sensors idle except during captures."""
        if session_s < 0:
            raise ValueError("session duration must be non-negative")
        active_s = sum(c.time_s for c in captures)
        if active_s > session_s:
            raise ValueError("captures exceed the session duration")
        total = EnergyBreakdown(0.0, 0.0, 0.0)
        for capture in captures:
            total = total + self.capture_energy(capture)
        idle = EnergyBreakdown(
            0.0, 0.0, (session_s - active_s) * self.IDLE_LEAKAGE_UW * 1e-6)
        return total + idle

    def always_on_session_energy(self, spec: SensorSpec, frame_time_s: float,
                                 session_s: float) -> EnergyBreakdown:
        """Strawman discipline: the sensor free-runs full-frame scans."""
        if frame_time_s <= 0:
            raise ValueError("frame time must be positive")
        if session_s < 0:
            raise ValueError("session duration must be non-negative")
        n_frames = session_s / frame_time_s
        cells = spec.cells * n_frames
        return EnergyBreakdown(
            sense_j=cells * self.sense_nj_per_cell * 1e-9,
            transfer_j=cells * self.TRANSFER_PJ_PER_BIT * 1e-12,
            leakage_j=session_s * self.ACTIVE_LEAKAGE_UW * 1e-6,
        )
