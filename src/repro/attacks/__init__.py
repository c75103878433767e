"""Adversary library for the section IV-B security analysis (benchmark E10).

Physical impostors, channel replay, man-in-the-middle and host-stack
malware — each scenario returns an :class:`AttackResult` stating whether
the adversary won and whether the system noticed.  The quality-evasion
adversary is a touch generator, :func:`evasive_tap`, which ablation A1 and
the E6 window sweep drive through the real pipeline.
"""

from .base import AttackResult
from .impostor import takeover_attack, unlock_attack
from .evasion import evasive_tap
from .replay import replay_cookie_request, replay_trust_traffic
from .mitm import (
    certificate_substitution_attack,
    key_substitution_attack,
    tamper_risk_attack,
)
from .malware import fake_touch_attack, ui_spoof_attack

__all__ = [
    "AttackResult",
    "unlock_attack", "takeover_attack",
    "evasive_tap",
    "replay_trust_traffic", "replay_cookie_request",
    "tamper_risk_attack", "key_substitution_attack",
    "certificate_substitution_attack",
    "ui_spoof_attack", "fake_touch_attack",
]
