"""Touch-gesture implicit authentication baseline (paper ref [8])."""

import numpy as np
import pytest

from repro.baselines import TouchGestureAuthenticator, gesture_features
from repro.eval import equal_error_rate
from repro.touchgen import (
    SessionConfig,
    SessionGenerator,
    example_users,
    make_swipe,
    make_tap,
)


@pytest.fixture(scope="module")
def traces():
    return {
        user.user_id: SessionGenerator(user).generate(
            SessionConfig(n_interactions=250), seed=33).gestures
        for user in example_users()
    }


class TestFeatures:
    def test_tap_features(self):
        tap = make_tap(0.0, 10, 20, 0.6, 0.1, "f", speed_mm_s=5.0)
        features = gesture_features(tap)
        assert features[0] == pytest.approx(0.6)  # pressure
        assert features[3] == pytest.approx(0.0)  # extent: taps don't move

    def test_swipe_extent(self):
        swipe = make_swipe(0.0, (10, 80), (10, 50), duration_s=0.3,
                           pressure=0.5, finger_id="f")
        features = gesture_features(swipe)
        assert features[3] == pytest.approx(30.0, abs=1.0)
        assert features[4] == pytest.approx(100.0, rel=0.1)  # mm/s


class TestAuthenticator:
    def test_enroll_and_score(self, traces):
        auth = TouchGestureAuthenticator()
        user_id = list(traces)[0]
        auth.enroll(user_id, traces[user_id][:60])
        score = auth.score_gesture(user_id, traces[user_id][61])
        assert 0.0 < score <= 1.0

    def test_unenrolled_rejected(self):
        auth = TouchGestureAuthenticator()
        with pytest.raises(KeyError):
            auth.score_gesture("ghost", make_tap(0, 1, 1, 0.5, 0.1, "f"))

    def test_enrollment_needs_gestures(self):
        with pytest.raises(ValueError):
            TouchGestureAuthenticator().enroll("u", [])

    def test_window_validation(self):
        with pytest.raises(ValueError):
            TouchGestureAuthenticator(window=0)

    def test_genuine_scores_higher_on_average(self, traces):
        auth = TouchGestureAuthenticator()
        genuine, impostor = auth.evaluate(traces)
        assert genuine.mean() > impostor.mean() + 0.05

    def test_eer_in_behavioural_range(self, traces):
        """Behavioural auth works but is far weaker than fingerprints."""
        genuine, impostor = TouchGestureAuthenticator().evaluate(traces)
        eer, _ = equal_error_rate(genuine, impostor)
        assert 0.10 < eer < 0.48

    def test_windowing_improves_eer(self, traces):
        per_gesture = TouchGestureAuthenticator().evaluate(traces)
        windowed = TouchGestureAuthenticator().evaluate_windows(traces)
        eer_raw, _ = equal_error_rate(*per_gesture)
        eer_window, _ = equal_error_rate(*windowed)
        assert eer_window < eer_raw

    def test_evaluate_needs_two_users(self, traces):
        single = {list(traces)[0]: traces[list(traces)[0]]}
        with pytest.raises(ValueError):
            TouchGestureAuthenticator().evaluate(single)
