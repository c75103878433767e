"""Password authentication baseline (Table I column 1).

Models Table I's login-speed axis (typing time), plus the paper's
introduction statistic — "91% of all user passwords belong to a
list of only 1,000 common passwords" [1] — as a dictionary-attack model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PasswordAuthModel", "LoginAttempt"]


@dataclass(frozen=True)
class LoginAttempt:
    """One password login."""

    success: bool
    latency_s: float
    keystrokes: int


class PasswordAuthModel:
    """Statistical model of password usage on a touchscreen keyboard."""

    #: Fraction of users whose password is in the top-1000 list [1].
    COMMON_PASSWORD_FRACTION = 0.91
    #: Soft-keyboard typing rate (chars/second) incl. symbol switching.
    TYPING_RATE_CPS = 2.5
    #: Probability of a typo forcing a retry on a soft keyboard.
    TYPO_RATE = 0.08
    #: The site's minimum password length, which sets typing time.
    MIN_LENGTH = 8
    #: The common-password list's length [1].
    DICTIONARY_SIZE = 1000
    #: Simulated logins behind a mean latency.
    LATENCY_TRIALS = 200

    def password_length(self, rng: np.random.Generator) -> int:
        """Length of the user's chosen password under the site minimum."""
        return int(self.MIN_LENGTH + rng.integers(0, 5))

    def login(self, rng: np.random.Generator) -> LoginAttempt:
        """One genuine login: typing time + possible typo retries."""
        length = self.password_length(rng)
        attempts = 1
        while rng.random() < self.TYPO_RATE:
            attempts += 1
        keystrokes = length * attempts
        latency = keystrokes / self.TYPING_RATE_CPS + 0.8  # focus + submit
        return LoginAttempt(success=True, latency_s=latency,
                            keystrokes=keystrokes)

    def dictionary_attack_success(self, guesses: int) -> float:
        """P(compromise) for an attacker trying the top-``guesses`` list.

        With probability COMMON_PASSWORD_FRACTION the victim's password is
        uniformly inside the top-``DICTIONARY_SIZE``; outside that list the
        attack fails.
        """
        if guesses < 0:
            raise ValueError("guesses must be non-negative")
        covered = min(guesses, self.DICTIONARY_SIZE) / self.DICTIONARY_SIZE
        return self.COMMON_PASSWORD_FRACTION * covered

    def mean_login_latency_s(self, rng: np.random.Generator) -> float:
        """Average measured login latency over simulated attempts."""
        return float(np.mean([self.login(rng).latency_s
                              for _ in range(self.LATENCY_TRIALS)]))
