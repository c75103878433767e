"""A complete mobile device: panel + FLock + untrusted host stack (Fig. 8).

``MobileDevice`` wires the hardware substrate to one FLock module and one
(possibly compromised) browser, and owns the device certificate issued by
the deployment CA.  It also carries the *physical* side of the simulation:
which human finger is touching, so opportunistic captures can be rendered.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import CertificateAuthority, RsaPrivateKey
from repro.fingerprint import MasterFingerprint
from repro.flock import FlockModule, TouchAuthEvent
from repro.hardware import (
    FLOCK_SENSOR,
    FLOCK_SENSOR_WIDE,
    LocatedTouch,
    PlacedSensor,
    SensorLayout,
    TouchEvent,
    TouchPanel,
)
from .browser import Browser

__all__ = ["default_layout", "MobileDevice"]


def default_layout() -> SensorLayout:
    """The four-sensor hot-spot layout of this reproduction's baseline
    device, on its 56 x 94 mm panel.

    Positions are the E5 greedy optimizer's output for the three example
    users' aggregate touch density: three wide sensors under the keyboard /
    confirm-button band and one under the mid-screen content hot-spot.
    Captures ~1/3 of natural touches with ~19 % screen coverage.
    """
    return SensorLayout(56.0, 94.0, [
        PlacedSensor(FLOCK_SENSOR_WIDE, 0.0, 80.0, label="keyboard-left"),
        PlacedSensor(FLOCK_SENSOR_WIDE, 20.0, 72.0, label="bottom-centre"),
        PlacedSensor(FLOCK_SENSOR_WIDE, 2.0, 58.0, label="mid-left"),
        PlacedSensor(FLOCK_SENSOR_WIDE, 36.0, 56.0, label="mid-right"),
    ])


class MobileDevice:
    """One smartphone with an integrated FLock module."""

    def __init__(self, device_id: str, seed: bytes,
                 ca: CertificateAuthority | None = None,
                 layout: SensorLayout | None = None,
                 processor_mode: str = "image",
                 key_bits: int = 1024,
                 device_key: RsaPrivateKey | None = None) -> None:
        self.device_id = device_id
        layout = default_layout() if layout is None else layout
        self.panel = TouchPanel(width_mm=layout.panel_width_mm,
                                height_mm=layout.panel_height_mm)
        self.flock = FlockModule(device_id, seed, layout,
                                 processor_mode=processor_mode,
                                 key_bits=key_bits, device_key=device_key)
        self.browser = Browser()
        if ca is not None:
            self.flock.install_ca(ca.public_key)
            certificate = ca.issue(device_id, "flock-device",
                                   self.flock.public_key, now=0)
            self.flock.set_certificate(certificate)

    @property
    def layout(self) -> SensorLayout:
        """The device's fingerprint-sensor layout."""
        return self.flock.controller.layout

    def touch(self, event: TouchEvent, master: MasterFingerprint,
              rng: np.random.Generator) -> tuple[LocatedTouch, TouchAuthEvent]:
        """A physical finger contact: locate it, run the Fig. 6 pipeline."""
        located = self.panel.locate(event)
        outcome = self.flock.handle_touch(located, master, rng)
        return located, outcome

    def touch_at(self, x_mm: float, y_mm: float, time_s: float,
                 master: MasterFingerprint, rng: np.random.Generator,
                 pressure: float = 0.5,
                 speed_mm_s: float = 0.0) -> tuple[LocatedTouch, TouchAuthEvent]:
        """Convenience wrapper for scripted touches (examples, protocols)."""
        event = TouchEvent(time_s=time_s, x_mm=x_mm, y_mm=y_mm,
                           pressure=pressure, speed_mm_s=speed_mm_s,
                           finger_id=master.finger_id)
        return self.touch(event, master, rng)
