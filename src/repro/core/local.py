"""Local identity management (paper section IV-A).

``LocalIdentityManager`` owns the full device-centric story:

- *unlock*: an unlock button is displayed above a fingerprint sensor; only
  a touch whose capture verifies unlocks the device;
- *continuous post-login protection*: every subsequent gesture runs through
  the Fig. 6 pipeline, the k-of-n window updates identity risk, and the
  response policy reacts (challenge -> halt -> lock);
- *detection bookkeeping*: when an impostor takes over, the number of
  touches until lock is the detection latency benchmark E6 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.fingerprint import MasterFingerprint
from repro.flock import FlockModule
from repro.hardware import TouchPanel
from repro.touchgen import Gesture, make_tap
from .identity_risk import IdentityRiskTracker
from .pipeline import ContinuousAuthPipeline, PipelineEvent
from .policy import (
    CRITICAL_MARGIN_MM,
    MinTouchTimeRule,
    ResponseAction,
    ResponsePolicy,
)

__all__ = ["DeviceState", "GestureResult", "LocalIdentityManager"]

#: The device's response ladder and its minimum-touch-time rule.
RESPONSE_POLICY = ResponsePolicy()
MIN_TOUCH_RULE = MinTouchTimeRule()


class DeviceState(Enum):
    """Lock-screen state machine of the local device."""
    LOCKED = "locked"
    UNLOCKED = "unlocked"
    HALTED = "halted"  # interaction suspended pending a verified touch


@dataclass(frozen=True)
class GestureResult:
    """What the device did in response to one gesture."""

    event: PipelineEvent | None  # None when the gesture was ignored
    action: ResponseAction
    state: DeviceState


@dataclass
class LocalIdentityManager:
    """The device-side TRUST controller."""

    flock: FlockModule
    panel: TouchPanel
    unlock_button_xy: tuple[float, float]
    state: DeviceState = field(default=DeviceState.LOCKED, init=False)
    locks: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.tracker = IdentityRiskTracker()
        self.pipeline = ContinuousAuthPipeline(self.flock, self.panel,
                                               self.tracker)
        sensor = self.flock.controller.layout.sensor_at(
            self.unlock_button_xy[0], self.unlock_button_xy[1],
            margin_mm=CRITICAL_MARGIN_MM)
        if sensor is None:
            raise ValueError(
                "the unlock button must be displayed over a fingerprint "
                "sensor (paper section IV-A)")

    # ------------------------------------------------------------- unlock
    def try_unlock(self, master: MasterFingerprint,
                   rng: np.random.Generator, time_s: float = 0.0) -> bool:
        """One unlock-button touch; unlocks only on a verified capture."""
        if self.state is DeviceState.UNLOCKED:
            return True
        gesture = make_tap(time_s, self.unlock_button_xy[0],
                           self.unlock_button_xy[1], 0.5, 0.12,
                           master.finger_id)
        event = self.pipeline.process_gesture(gesture, master, rng)
        if event.verified:
            self.state = DeviceState.UNLOCKED
            self.tracker.reset()
            return True
        return False

    # -------------------------------------------------- continuous phase
    def process_gesture(self, gesture: Gesture, master: MasterFingerprint,
                        rng: np.random.Generator) -> GestureResult:
        """One user-device interaction while (nominally) unlocked."""
        if self.state is DeviceState.LOCKED:
            return GestureResult(event=None, action=ResponseAction.NONE,
                                 state=self.state)
        if self.state is DeviceState.HALTED:
            # Only an explicitly verified touch resumes interaction; a
            # continuing stream of unverified touches escalates to a lock
            # once the k-of-n window breaches.
            event = self.pipeline.process_gesture(gesture, master, rng)
            if event.verified:
                self.state = DeviceState.UNLOCKED
                return GestureResult(event=event, action=ResponseAction.NONE,
                                     state=self.state)
            if event.assessment.breach:
                self.state = DeviceState.LOCKED
                self.locks += 1
                self.tracker.reset()
                return GestureResult(event=event,
                                     action=ResponseAction.LOCK_DEVICE,
                                     state=self.state)
            return GestureResult(event=event,
                                 action=ResponseAction.HALT_INTERACTION,
                                 state=self.state)

        if not MIN_TOUCH_RULE.permits(gesture):
            # Too brief to capture: the gesture is ignored outright
            # (countermeasure 2) and does not touch the risk window.
            return GestureResult(event=None, action=ResponseAction.NONE,
                                 state=self.state)

        event = self.pipeline.process_gesture(gesture, master, rng)
        action = RESPONSE_POLICY.action_for(event.assessment.risk,
                                            event.assessment.breach)
        if action is ResponseAction.LOCK_DEVICE:
            self.state = DeviceState.LOCKED
            self.locks += 1
            self.tracker.reset()
        elif action is ResponseAction.HALT_INTERACTION:
            self.state = DeviceState.HALTED
        return GestureResult(event=event, action=action, state=self.state)

    # ----------------------------------------------------------- reports
    @property
    def current_risk(self) -> float:
        """The live identity-risk value of the window."""
        return self.pipeline.current_risk

    def detection_latency(self, takeover_index: int) -> int | None:
        """Touches between an impostor takeover and the first lock.

        ``takeover_index`` is the index (into the pipeline event log) of
        the impostor's first gesture; returns None if never locked after it.
        """
        for offset, event in enumerate(self.pipeline.events[takeover_index:]):
            if event.assessment.breach:
                return offset + 1
        return None
