"""Physical impostor attacks: stolen/borrowed device, wrong finger.

The attacker holds the real device and interacts naturally — the only
thing they cannot fake is the enrolled fingertip.  Scenarios: unlock
attempts against the lock screen, and post-unlock takeover of a running
session (detection latency measured by the k-of-n window).
"""

from __future__ import annotations

import numpy as np

from repro.core import DeviceState, LocalIdentityManager
from repro.fingerprint import MasterFingerprint
from repro.touchgen import SessionConfig, SessionGenerator, UserTouchModel
from .base import AttackResult

__all__ = ["unlock_attack", "takeover_attack"]


def unlock_attack(manager: LocalIdentityManager,
                  impostor_master: MasterFingerprint,
                  rng: np.random.Generator,
                  attempts: int = 20) -> AttackResult:
    """Repeatedly press the unlock button with the wrong finger."""
    if manager.state is not DeviceState.LOCKED:
        raise ValueError("unlock attack needs a locked device")
    for attempt in range(attempts):
        if manager.try_unlock(impostor_master, rng, time_s=attempt * 0.6):
            return AttackResult(
                name="impostor-unlock", succeeded=True, detected=False,
                attempts=attempt + 1,
                detail=f"false accept on attempt {attempt + 1}")
    return AttackResult(
        name="impostor-unlock", succeeded=False, detected=True,
        attempts=attempts,
        detail=f"{attempts} unlock touches, none verified")


def takeover_attack(manager: LocalIdentityManager,
                    impostor_master: MasterFingerprint,
                    impostor_behaviour: UserTouchModel,
                    rng: np.random.Generator,
                    max_touches: int = 150) -> AttackResult:
    """The impostor picks up an *unlocked* device and uses it naturally.

    Returns the number of touches until the device locked (detection
    latency) in ``evidence['touches_to_lock']``.
    """
    if manager.state is not DeviceState.UNLOCKED:
        raise ValueError("takeover attack needs an unlocked device")
    generator = SessionGenerator(impostor_behaviour)
    trace = generator.generate(SessionConfig(n_interactions=max_touches),
                               seed=0)
    for index, gesture in enumerate(trace.gestures):
        result = manager.process_gesture(gesture, impostor_master, rng)
        if result.state is DeviceState.LOCKED:
            return AttackResult(
                name="impostor-takeover", succeeded=False, detected=True,
                attempts=index + 1,
                detail=f"locked after {index + 1} touches",
                evidence={"touches_to_lock": index + 1})
    return AttackResult(
        name="impostor-takeover", succeeded=True, detected=False,
        attempts=max_touches,
        detail=f"still unlocked after {max_touches} touches",
        evidence={"touches_to_lock": None})
