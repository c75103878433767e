"""One enrolled finger per device: it verifies, no other finger does, a
re-enrollment replaces it, and an identity transfer carries it."""

import numpy as np
import pytest

from repro.fingerprint import MinutiaeMatcher, enroll_master, synthesize_master
from repro.flock import ImageFingerprintProcessor
from repro.net import MobileDevice

#: A spot over the default layout's keyboard-left sensor.
ON_SENSOR = (28.0, 80.0)


@pytest.fixture(scope="module")
def fingers():
    return {
        "thumb": synthesize_master("alice-thumb", np.random.default_rng(5)),
        "index": synthesize_master("alice-index", np.random.default_rng(15)),
        "eve": synthesize_master("eve-thumb", np.random.default_rng(900)),
    }


@pytest.fixture(scope="module")
def templates(fingers):
    rng = np.random.default_rng(1)
    return {name: enroll_master(master, rng)
            for name, master in fingers.items()}


@pytest.fixture(scope="module")
def device(templates):
    device = MobileDevice("finger-dev", b"finger-seed", key_bits=512)
    device.flock.enroll_local_user(templates["thumb"])
    return device


def _verify_rate(device, master, n=10):
    rng = np.random.default_rng(2)
    verified = 0
    for i in range(n):
        _, outcome = device.touch_at(*ON_SENSOR, float(i), master, rng)
        verified += outcome.verified
    return verified / n


class TestOneEnrolledFinger:
    def test_enrolled_finger_verifies(self, device, fingers):
        assert _verify_rate(device, fingers["thumb"]) >= 0.5

    def test_other_finger_of_the_same_user_rejected(self, device, fingers):
        assert _verify_rate(device, fingers["index"], n=12) == 0.0

    def test_impostor_rejected(self, device, fingers):
        assert _verify_rate(device, fingers["eve"], n=12) == 0.0

    def test_re_enrollment_replaces_the_template(self, templates, fingers):
        device = MobileDevice("finger-dev2", b"finger-seed2", key_bits=512)
        device.flock.enroll_local_user(templates["thumb"])
        device.flock.enroll_local_user(templates["index"])
        assert device.flock.flash.device_template() is templates["index"]
        assert _verify_rate(device, fingers["index"]) >= 0.5
        assert _verify_rate(device, fingers["thumb"], n=12) == 0.0

    def test_modeled_mode_keys_on_the_enrolled_finger(self, templates,
                                                       fingers):
        device = MobileDevice("finger-dev3", b"finger-seed3", key_bits=512,
                              processor_mode="modeled")
        device.flock.enroll_local_user(templates["thumb"])
        thumb = _verify_rate(device, fingers["thumb"], n=20)
        index = _verify_rate(device, fingers["index"], n=20)
        assert thumb >= 0.5
        assert index < thumb


class TestTransfer:
    def test_transfer_carries_the_enrolled_finger(self, device, fingers):
        new = MobileDevice("finger-new", b"finger-new-seed", key_bits=512)
        bundle = device.flock.export_identity(
            new.flock.public_key, authorizing_touch_verified=True)
        assert new.flock.import_identity(bundle) == []
        assert new.flock.flash.device_template().finger_id == "alice-thumb"
        assert _verify_rate(new, fingers["thumb"]) >= 0.5
        assert _verify_rate(new, fingers["index"], n=12) == 0.0

    def test_device_without_template_transfers_none(self, fingers):
        old = MobileDevice("finger-old", b"finger-old-seed", key_bits=512)
        new = MobileDevice("finger-new2", b"finger-new2-seed", key_bits=512)
        bundle = old.flock.export_identity(
            new.flock.public_key, authorizing_touch_verified=True)
        assert new.flock.import_identity(bundle) == []
        assert not new.flock.flash.has_device_template


def test_template_is_prepared_once(monkeypatch, templates, fingers):
    """The enrolled template is prepared for matching when the processor
    is built, never again per capture."""
    prepared = []
    original = MinutiaeMatcher.prepare

    def counting_prepare(self, minutiae):
        prepared.append(minutiae)
        return original(self, minutiae)

    monkeypatch.setattr(MinutiaeMatcher, "prepare", counting_prepare)
    template = templates["thumb"]
    device = MobileDevice("finger-dev4", b"finger-seed4", key_bits=512)
    device.flock.enroll_local_user(template)
    assert isinstance(device.flock._local_processor,
                      ImageFingerprintProcessor)
    assert _verify_rate(device, fingers["thumb"], n=4) > 0.0
    assert sum(m is template.minutiae for m in prepared) == 1
    assert len(prepared) > 1  # the probes were prepared per capture
