"""Multi-finger enrollment: one user, several fingers, one identity."""

import numpy as np
import pytest

from repro.fingerprint import enroll_master, synthesize_master
from repro.flock import FlockError
from repro.net import MobileDevice


@pytest.fixture(scope="module")
def fingers():
    return {
        "thumb": synthesize_master("alice-thumb", np.random.default_rng(5)),
        "index": synthesize_master("alice-index", np.random.default_rng(15)),
        "eve": synthesize_master("eve-thumb", np.random.default_rng(900)),
    }


@pytest.fixture()
def device(fingers):
    rng = np.random.default_rng(1)
    device = MobileDevice("multi-dev", b"multi-seed")
    device.flock.enroll_local_user(enroll_master(fingers["thumb"], rng))
    device.flock.enroll_additional_finger(enroll_master(fingers["index"], rng))
    return device


def _verify_rate(device, master, n=10):
    rng = np.random.default_rng(2)
    verified = 0
    for i in range(n):
        _, outcome = device.touch_at(28.0, 80.0, float(i), master, rng)
        verified += outcome.verified
    return verified / n


class TestMultiFinger:
    def test_enrolled_ids_listed(self, device):
        assert device.flock.enrolled_finger_ids == ["alice-thumb",
                                                    "alice-index"]

    def test_both_fingers_verify(self, device, fingers):
        assert _verify_rate(device, fingers["thumb"]) >= 0.5
        assert _verify_rate(device, fingers["index"]) >= 0.5

    def test_impostor_still_rejected(self, device, fingers):
        assert _verify_rate(device, fingers["eve"], n=12) == 0.0

    def test_duplicate_finger_rejected(self, device, fingers):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="already enrolled"):
            device.flock.enroll_additional_finger(
                enroll_master(fingers["thumb"], rng))

    def test_additional_before_primary_rejected(self, fingers):
        device = MobileDevice("multi-dev2", b"multi-seed2")
        rng = np.random.default_rng(4)
        with pytest.raises(FlockError, match="primary finger first"):
            device.flock.enroll_additional_finger(
                enroll_master(fingers["index"], rng))

    def test_modeled_mode_rejects_additional(self, fingers):
        device = MobileDevice("multi-dev3", b"multi-seed3",
                              processor_mode="modeled")
        rng = np.random.default_rng(5)
        device.flock.enroll_local_user(enroll_master(fingers["thumb"], rng))
        with pytest.raises(FlockError, match="image-mode"):
            device.flock.enroll_additional_finger(
                enroll_master(fingers["index"], rng))

    def test_unenrolled_device_lists_nothing(self):
        device = MobileDevice("multi-dev4", b"multi-seed4")
        assert device.flock.enrolled_finger_ids == []
