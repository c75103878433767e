"""Separate fingerprint sensor baseline (Table I column 2).

A discrete swipe/press sensor (home-button style): biometric login without
memorization, but it costs an *extra explicit step* per authentication, it
takes a few seconds, and it provides no post-login protection — the device
is wide open between logins.  Matching quality uses the full-print score
model (a dedicated sensor captures the whole fingertip).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fingerprint import DEFAULT_FULL_MODEL

__all__ = ["SwipeAttempt", "SeparateFingerprintSensor"]


@dataclass(frozen=True)
class SwipeAttempt:
    """One explicit swipe authentication."""

    accepted: bool
    score: float
    latency_s: float


class SeparateFingerprintSensor:
    """Explicit-step fingerprint login (the middle column of Table I)."""

    #: Time to reposition the finger onto the discrete sensor and swipe.
    SWIPE_ACTION_S = 1.2
    #: Sensor scan + match time.
    PROCESS_S = 0.35
    #: Probability the swipe fails mechanically (bad swipe speed/angle)
    #: and must be redone — the familiar "try again" experience.
    BAD_SWIPE_RATE = 0.15
    #: Match score a swipe needs to be accepted.
    ACCEPT_THRESHOLD = 0.45
    #: Swipes a genuine user makes before giving up.
    MAX_ATTEMPTS = 3
    #: Simulated logins behind a mean latency.
    LATENCY_TRIALS = 200

    def authenticate(self, genuine: bool,
                     rng: np.random.Generator) -> SwipeAttempt:
        """One explicit login: swipe retries + match decision."""
        swipes = 1
        while rng.random() < self.BAD_SWIPE_RATE:
            swipes += 1
        score = DEFAULT_FULL_MODEL.sample(genuine, rng)
        return SwipeAttempt(
            accepted=score >= self.ACCEPT_THRESHOLD,
            score=score,
            latency_s=swipes * self.SWIPE_ACTION_S + self.PROCESS_S,
        )

    def genuine_login(self, rng: np.random.Generator) -> SwipeAttempt:
        """A genuine user retries a rejected swipe; returns the final try."""
        total_latency = 0.0
        attempt = self.authenticate(True, rng)
        for _ in range(self.MAX_ATTEMPTS - 1):
            total_latency += attempt.latency_s
            if attempt.accepted:
                break
            attempt = self.authenticate(True, rng)
        else:
            total_latency += attempt.latency_s
        return SwipeAttempt(accepted=attempt.accepted, score=attempt.score,
                            latency_s=total_latency)

    def mean_login_latency_s(self, rng: np.random.Generator) -> float:
        """Average measured login latency over simulated attempts."""
        return float(np.mean([self.genuine_login(rng).latency_s
                              for _ in range(self.LATENCY_TRIALS)]))
