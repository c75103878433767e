"""Touch-gesture implicit authentication (the paper's reference [8]).

Feng et al.'s own earlier system (HST 2012) authenticates users from the
*behavioural* statistics of their touch gestures — speed, pressure, dwell,
preferred screen regions — with machine learning on gesture features.  The
TRUST paper supersedes it with physiological biometrics; this baseline
reproduces the behavioural approach so benchmark E14 can compare the two
continuous-auth modalities on equal workloads.

Model: per-user Gaussian statistics over a gesture feature vector, scored
by mean z-distance and smoothed over a sliding gesture window (behavioural
signals are far noisier per-event than fingerprints, so all such systems
decide over windows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.touchgen import Gesture

__all__ = ["gesture_features", "TouchGestureAuthenticator"]

#: Feature vector layout.  Micro-dynamics only: positions are dictated by
#: the UI (everyone presses the same buttons), so including them buries
#: the behavioural signal under shared task structure.  Stroke extent and
#: velocity capture the personal scroll habits the HST paper exploits.
FEATURE_NAMES = ("pressure", "speed_mm_s", "duration_s", "extent_mm",
                 "stroke_velocity")


def gesture_features(gesture: Gesture) -> np.ndarray:
    """Extract the behavioural feature vector of one gesture."""
    event = gesture.primary_event
    last = gesture.events[-1]
    extent = float(np.hypot(last.x_mm - event.x_mm, last.y_mm - event.y_mm))
    duration = max(gesture.end_s - gesture.start_s, 1e-3)
    return np.array([
        event.pressure,
        event.speed_mm_s,
        duration,
        extent,
        extent / duration,
    ], dtype=np.float64)


@dataclass
class _Profile:
    """Gaussian feature statistics of one (user, gesture-kind) pair."""
    mean: np.ndarray
    std: np.ndarray


#: Fallback profile key when a gesture kind was absent at enrollment.
_ANY_KIND = "any"
#: Share of each user's trace that enrolls the profile in an evaluation.
ENROLLMENT_FRACTION = 0.4


class TouchGestureAuthenticator:
    """Gaussian behavioural-profile verifier over gesture windows."""

    def __init__(self, window: int = 7) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self.window = int(window)
        self._profiles: dict[str, dict[str, _Profile]] = {}

    def enroll(self, user_id: str, gestures: list[Gesture]) -> None:
        """Fit per-gesture-kind behavioural profiles from a trace.

        Taps and swipes have categorically different dynamics; pooling
        them into one Gaussian inflates the variance and buries the
        per-user signal, so each kind gets its own profile.
        """
        if len(gestures) < 10:
            raise ValueError("enrollment needs at least 10 gestures")
        by_kind: dict[str, list[np.ndarray]] = {}
        for gesture in gestures:
            by_kind.setdefault(gesture.kind.value, []).append(
                gesture_features(gesture))
        profiles: dict[str, _Profile] = {}
        for kind, rows in by_kind.items():
            if len(rows) < 3:
                continue
            stacked = np.stack(rows)
            profiles[kind] = _Profile(
                mean=stacked.mean(axis=0),
                std=np.maximum(stacked.std(axis=0), 1e-3),
            )
        all_features = np.stack([gesture_features(g) for g in gestures])
        profiles[_ANY_KIND] = _Profile(
            mean=all_features.mean(axis=0),
            std=np.maximum(all_features.std(axis=0), 1e-3),
        )
        self._profiles[user_id] = profiles

    def score_gesture(self, user_id: str, gesture: Gesture) -> float:
        """Per-gesture similarity in (0, 1]: exp(-mean squared z)."""
        profiles = self._profiles.get(user_id)
        if profiles is None:
            raise KeyError(f"user {user_id!r} not enrolled")
        profile = profiles.get(gesture.kind.value, profiles[_ANY_KIND])
        z = (gesture_features(gesture) - profile.mean) / profile.std
        return float(np.exp(-float(np.mean(z**2)) / 4.0))

    def evaluate(self, traces_by_user: dict[str, list[Gesture]]
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Genuine/impostor per-gesture score arrays over a population.

        The first ``ENROLLMENT_FRACTION`` of each user's trace enrolls the
        profile; the remainder scores genuine, and every other user's
        remainder scores impostor.
        """
        if len(traces_by_user) < 2:
            raise ValueError("need at least two users")
        splits = {}
        for user_id, gestures in traces_by_user.items():
            cut = max(int(len(gestures) * ENROLLMENT_FRACTION), 10)
            if cut >= len(gestures):
                raise ValueError(f"trace for {user_id!r} too short")
            self.enroll(user_id, gestures[:cut])
            splits[user_id] = gestures[cut:]
        genuine, impostor = [], []
        users = list(splits)
        for index, user_id in enumerate(users):
            for gesture in splits[user_id]:
                genuine.append(self.score_gesture(user_id, gesture))
            other = users[(index + 1) % len(users)]
            for gesture in splits[other]:
                impostor.append(self.score_gesture(user_id, gesture))
        return np.array(genuine), np.array(impostor)

    def evaluate_windows(self, traces_by_user: dict[str, list[Gesture]]
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Window-smoothed score arrays (how these systems actually decide).

        Per-gesture behavioural scores are noisy; deployed systems average
        over the last ``window`` gestures.  Returns the sliding-window mean
        score series for genuine and impostor streams.
        """
        genuine_raw, impostor_raw = self.evaluate(traces_by_user)

        def smooth(scores: np.ndarray) -> np.ndarray:
            if len(scores) < self.window:
                return scores.copy()
            kernel = np.ones(self.window) / self.window
            return np.convolve(scores, kernel, mode="valid")

        return smooth(genuine_raw), smooth(impostor_raw)
