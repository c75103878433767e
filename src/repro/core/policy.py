"""Response policies and the section IV-A countermeasures.

The paper proposes three preventive measures against quality-evasion
impostors:

1. critical buttons/menus are displayed over sensor-covered regions and
   cannot be bypassed;
2. interacting with certain buttons requires a minimum touch time (longer
   than the fingerprint capture time);
3. window-based touch authentication (k-of-n, in
   :mod:`repro.core.identity_risk`).

This module implements 1 and 2, plus the graduated response ladder the
device takes when risk rises ("halting interactions with the user, logging
out automatically, etc.").
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.hardware import SensorLayout
from repro.touchgen import Gesture, UiLayout

__all__ = ["ResponseAction", "ResponsePolicy", "CriticalButtonRule",
           "MinTouchTimeRule"]

#: Inset (mm) a critical element's centre needs inside a sensor to count
#: as covered: a fingertip pressed there lands wholly on the sensor.
CRITICAL_MARGIN_MM = 4.0


class ResponseAction(Enum):
    """Pre-defined responses, mildest first."""

    NONE = "none"
    CHALLENGE = "challenge"  # demand an explicit verified touch
    HALT_INTERACTION = "halt"  # stop responding to input
    LOCK_DEVICE = "lock"  # lock / log out


@dataclass(frozen=True)
class ResponsePolicy:
    """Risk thresholds -> actions (evaluated mildest to harshest); a
    k-of-n breach locks the device."""

    challenge_risk: float = 0.7
    halt_risk: float = 0.85

    def __post_init__(self) -> None:
        if not 0.0 <= self.challenge_risk <= 1.0:
            raise ValueError("challenge_risk must be in [0, 1]")
        if self.halt_risk < self.challenge_risk:
            raise ValueError("halt_risk must be >= challenge_risk")

    def action_for(self, risk: float, breach: bool) -> ResponseAction:
        """The response the ladder prescribes for a (risk, breach) state."""
        if breach:
            return ResponseAction.LOCK_DEVICE
        if risk >= self.halt_risk:
            return ResponseAction.HALT_INTERACTION
        if risk >= self.challenge_risk:
            return ResponseAction.CHALLENGE
        return ResponseAction.NONE


class CriticalButtonRule:
    """Countermeasure 1: critical UI elements must sit over sensors.

    ``validate_layout`` checks a UI layout against a sensor layout and
    returns the critical elements whose centres are NOT usably covered —
    a design-time lint the examples and benchmarks run on every screen.
    """

    def __init__(self, sensor_layout: SensorLayout) -> None:
        self.sensor_layout = sensor_layout

    def uncovered_critical_elements(self, ui_layout: UiLayout) -> list[str]:
        """Critical UI elements whose centres no sensor usably covers."""
        uncovered = []
        for element in ui_layout.elements:
            if not element.critical:
                continue
            cx, cy = element.center
            if self.sensor_layout.sensor_at(
                    cx, cy, margin_mm=CRITICAL_MARGIN_MM) is None:
                uncovered.append(element.name)
        return uncovered


class MinTouchTimeRule:
    """Countermeasure 2: critical touches must dwell >= capture time.

    A flick too short for the sensor to scan the finger is rejected
    outright — the impostor cannot act on a critical button with a touch
    that was deliberately too fast to capture.
    """

    def __init__(self, min_duration_s: float = 0.05) -> None:
        if min_duration_s <= 0:
            raise ValueError("minimum duration must be positive")
        self.min_duration_s = float(min_duration_s)

    def permits(self, gesture: Gesture) -> bool:
        """Whether the gesture dwelled long enough to act on."""
        return (gesture.end_s - gesture.start_s) >= self.min_duration_s
