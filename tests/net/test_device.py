"""MobileDevice wiring and the default sensor layout."""

import numpy as np
import pytest

from repro.fingerprint import enroll_master, synthesize_master
from repro.hardware import TouchEvent
from repro.net import MobileDevice, default_layout


@pytest.fixture(scope="module")
def device():
    master = synthesize_master("dev-f", np.random.default_rng(5))
    device = MobileDevice("wiring-dev", b"wiring-seed")
    device.flock.enroll_local_user(
        enroll_master(master, np.random.default_rng(6)))
    return device, master


class TestDefaultLayout:
    def test_four_sensors_within_panel(self):
        layout = default_layout()
        assert len(layout.sensors) == 4
        assert 0.15 < layout.area_fraction() < 0.25

    def test_login_button_location_covered(self):
        layout = default_layout()
        assert layout.sensor_at(28.0, 80.0, margin_mm=2.0) is not None

    def test_no_overlaps(self):
        layout = default_layout()
        for i, a in enumerate(layout.sensors):
            for b in layout.sensors[i + 1:]:
                assert not a.overlaps(b)


class TestMobileDevice:
    def test_panel_matches_layout_dimensions(self, device):
        dev, _ = device
        assert dev.panel.width_mm == dev.layout.panel_width_mm
        assert dev.panel.height_mm == dev.layout.panel_height_mm

    def test_touch_routes_through_flock(self, device):
        dev, master = device
        rng = np.random.default_rng(0)
        located, outcome = dev.touch(
            TouchEvent(time_s=0.0, x_mm=28.0, y_mm=80.0,
                       finger_id=master.finger_id),
            master, rng)
        assert located.report_time_s == pytest.approx(0.004)
        assert outcome.captured

    def test_touch_at_convenience(self, device):
        dev, master = device
        rng = np.random.default_rng(1)
        located, outcome = dev.touch_at(5.0, 5.0, 1.0, master, rng)
        assert not outcome.captured  # top-left corner: no sensor

    def test_browser_starts_clean(self, device):
        dev, _ = device
        assert dev.browser.malware is None

    def test_device_without_ca_has_no_certificate(self, device):
        dev, _ = device
        assert dev.flock.certificate is None
