"""Keystroke-dynamics continuous authentication baseline (related work).

The paper's section V cites keystroke-dynamics systems (Hwang et al.,
Maiorana et al., Clarke & Furnell) as the prior art for implicit mobile
authentication.  This baseline implements the standard statistical
approach: per-user Gaussian profiles over key hold times and digraph
flight times, scored by normalized z-distance.  Its EER (typically >10 %)
is structurally worse than fingerprint matching — which is exactly the
comparison benchmark E11's discussion needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TypingProfile", "KeystrokeSample", "KeystrokeAuthenticator"]


@dataclass(frozen=True)
class TypingProfile:
    """Ground-truth typing rhythm of one user (the simulation's reality)."""

    user_id: str
    hold_mean_s: float  # key-down duration
    hold_std_s: float
    flight_mean_s: float  # key-to-key latency
    flight_std_s: float

    @staticmethod
    def random(user_id: str, rng: np.random.Generator) -> "TypingProfile":
        """Draw a plausible typing profile for a new synthetic user.

        Population spreads are chosen so between-user differences are
        comparable to within-user variability — matching the published
        mobile keystroke studies' EERs (high single digits to ~20 %)
        rather than an artificially separable toy population.
        """
        return TypingProfile(
            user_id=user_id,
            hold_mean_s=float(rng.uniform(0.075, 0.125)),
            hold_std_s=float(rng.uniform(0.015, 0.035)),
            flight_mean_s=float(rng.uniform(0.20, 0.34)),
            flight_std_s=float(rng.uniform(0.05, 0.10)),
        )

    def sample(self, n_keys: int, rng: np.random.Generator) -> "KeystrokeSample":
        """Generate one observed typing burst from this profile."""
        holds = np.maximum(
            rng.normal(self.hold_mean_s, self.hold_std_s, n_keys), 0.01)
        flights = np.maximum(
            rng.normal(self.flight_mean_s, self.flight_std_s, n_keys - 1), 0.01)
        return KeystrokeSample(holds=holds, flights=flights)


@dataclass(frozen=True)
class KeystrokeSample:
    """Observed timings of one typing burst."""

    holds: np.ndarray
    flights: np.ndarray


class KeystrokeAuthenticator:
    """Gaussian-profile keystroke verifier."""

    #: Scored bursts per user in an evaluation, and keys per burst.
    EVALUATION_BURSTS = 30
    KEYS_PER_BURST = 20

    def __init__(self) -> None:
        self._enrolled: dict[str, tuple[float, float, float, float]] = {}

    def enroll(self, user_id: str, samples: list[KeystrokeSample]) -> None:
        """Fit (hold mean/std, flight mean/std) from enrollment bursts."""
        if not samples:
            raise ValueError("need at least one enrollment sample")
        holds = np.concatenate([s.holds for s in samples])
        flights = np.concatenate([s.flights for s in samples])
        if len(holds) < 10:
            raise ValueError("enrollment needs at least 10 keystrokes")
        self._enrolled[user_id] = (
            float(holds.mean()), float(max(holds.std(), 1e-4)),
            float(flights.mean()), float(max(flights.std(), 1e-4)),
        )

    def score(self, user_id: str, sample: KeystrokeSample) -> float:
        """Similarity in (0, 1]: exp(-mean squared z-distance)."""
        if user_id not in self._enrolled:
            raise KeyError(f"user {user_id!r} not enrolled")
        hold_mean, hold_std, flight_mean, flight_std = self._enrolled[user_id]
        z_hold = (sample.holds.mean() - hold_mean) / hold_std
        z_flight = (sample.flights.mean() - flight_mean) / flight_std
        distance_sq = (z_hold**2 + z_flight**2) / 2.0
        return float(np.exp(-distance_sq / 4.0))

    def evaluate(self, profiles: list[TypingProfile],
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Genuine/impostor score arrays over a user population."""
        if len(profiles) < 2:
            raise ValueError("need at least two users")
        for profile in profiles:
            self.enroll(profile.user_id,
                        [profile.sample(self.KEYS_PER_BURST, rng)
                         for _ in range(5)])
        genuine, impostor = [], []
        for i, profile in enumerate(profiles):
            for _ in range(self.EVALUATION_BURSTS):
                genuine.append(self.score(
                    profile.user_id, profile.sample(self.KEYS_PER_BURST, rng)))
                other = profiles[(i + 1) % len(profiles)]
                impostor.append(self.score(
                    profile.user_id, other.sample(self.KEYS_PER_BURST, rng)))
        return np.array(genuine), np.array(impostor)
