"""Fingerprint controller: touch coordinates -> sensor capture (Fig. 4/6).

On each located touch the controller:

1. finds the placed sensor (if any) whose footprint usably covers the touch
   (Fig. 6 decision 1: "requires data capture outside the areas of
   fingerprint sensors?");
2. translates the panel (x, y) into sensor (row, col) cell addresses;
3. renders what the finger's skin actually presents to those cells (the
   physical contact, via the impression model); and
4. drives the array to capture a window around the touch point with
   selective row/column addressing, returning the binary image plus the
   modeled capture latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fingerprint import CaptureCondition, Impression, MasterFingerprint, render_impression
from repro.hardware import (
    CaptureResult,
    CaptureWindow,
    LocatedTouch,
    PlacedSensor,
    SensorArray,
    SensorLayout,
)
from repro.obs import Instrumentation, NOOP

from .rng import SimulationRng

__all__ = ["TouchCapture", "FingerprintController"]

#: Fingertip contact patch radius on the sensor surface, in mm.
CONTACT_RADIUS_MM = 4.0

#: How close to a sensor edge a touch centre may land and still be worth
#: capturing.  Smaller than the contact radius: a partially-overhanging
#: contact still yields a (smaller, lower-quality) capture, and the quality
#: gate — not geometry — decides whether it is usable.
CAPTURE_MARGIN_MM = 2.0

#: The panel's location latency: the skin keeps moving for this long
#: between first contact and the sensor scan, so fast touches smear.
PANEL_SETTLE_S = 0.004


@dataclass(frozen=True)
class TouchCapture:
    """Everything the controller hands to the fingerprint processor."""

    sensor: PlacedSensor
    hardware: CaptureResult
    impression: Impression  # the analog skin contact (pre-comparator)
    capture_time_s: float  # sensor scan latency (modeled)
    touch: LocatedTouch


class FingerprintController:
    """Drives the sensors of one layout; one SensorArray per placed sensor."""

    def __init__(self, layout: SensorLayout,
                 margin_mm: float = CAPTURE_MARGIN_MM) -> None:
        self.layout = layout
        self.margin_mm = float(margin_mm)
        # Indexed by layout position: layouts forbid overlapping sensors,
        # so positions are unique.
        self._arrays = [SensorArray(s.spec) for s in layout.sensors]
        self.obs = NOOP

    @property
    def obs(self) -> Instrumentation:
        """The instrumentation bundle, shared with every sensor array."""
        return self._obs

    @obs.setter
    def obs(self, value: Instrumentation) -> None:
        self._obs = value
        for array in self._arrays:
            array.obs = value

    def _array_for(self, sensor: PlacedSensor) -> SensorArray:
        return self._arrays[self.layout.sensors.index(sensor)]

    def sensor_for(self, touch: LocatedTouch) -> PlacedSensor | None:
        """Fig. 6 decision 1: the sensor usably covering this touch."""
        return self.layout.sensor_at(touch.x_mm, touch.y_mm,
                                     margin_mm=self.margin_mm)

    def capture(self, touch: LocatedTouch, master: MasterFingerprint,
                rng: SimulationRng) -> TouchCapture | None:
        """Opportunistically capture the fingerprint under a touch.

        Returns None when no sensor covers the touch (the controller "keeps
        waiting for future touch events").  ``master`` is the ground-truth
        finger of whoever is touching — the simulation's physical reality.
        """
        sensor = self.sensor_for(touch)
        if sensor is None:
            return None

        spec = sensor.spec
        cell_row, cell_col = sensor.cell_address(touch.x_mm, touch.y_mm)
        cells_per_mm = 1000.0 / spec.cell_um
        half_extent = max(int(round(CONTACT_RADIUS_MM * cells_per_mm)), 1)
        window = CaptureWindow.around(cell_row, cell_col, half_extent,
                                      spec.rows, spec.cols)

        # Physical contact: a random region of the fingertip lands on the
        # sensor; speed and pressure come from the touch dynamics.
        # Light touches contact less skin (smaller patch, more dry-contact
        # dropout) and fast touches smear over the panel's settle window —
        # this is what makes deliberate low-quality evasion *physically*
        # produce discardable captures (paper §IV-A challenge 1).
        event = touch.event
        contact_scale = min(0.55 + 0.9 * event.pressure, 1.1)
        dropout = 0.02 + max(0.0, 0.30 - event.pressure) * 0.5
        scan_time = (PANEL_SETTLE_S
                     + self._array_for(sensor).capture_time_s(window))
        condition = CaptureCondition(
            center=(float(rng.uniform(0.3, 0.7) * master.shape[0]),
                    float(rng.uniform(0.3, 0.7) * master.shape[1])),
            radius=CONTACT_RADIUS_MM * cells_per_mm * contact_scale,
            rotation_deg=float(rng.uniform(-25.0, 25.0)),
            pressure=event.pressure,
            motion_px=min(event.speed_mm_s * cells_per_mm * scan_time, 12.0),
            noise=0.05,
            dropout=min(dropout, 0.5),
        )
        array = self._array_for(sensor)
        impression = render_impression(
            master, condition, rng,
            output_shape=(window.n_rows, window.n_cols))

        # Drive the array over the window; the rendered impression is the
        # window's analog cell values.
        hardware = array.capture(impression.image, window)

        return TouchCapture(
            sensor=sensor,
            hardware=hardware,
            impression=impression,
            capture_time_s=hardware.time_s,
            touch=touch,
        )
