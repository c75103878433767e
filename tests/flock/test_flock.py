"""FLock module: storage, display repeater, controllers, trusted boundary."""

import dataclasses

import numpy as np
import pytest

from repro.crypto import (
    Certificate,
    CertificateAuthority,
    CertificateError,
    HmacDrbg,
    generate_keypair,
    hmac_sha256,
)
from repro.fingerprint import (
    DEFAULT_PARTIAL_MODEL,
    enroll_master,
    synthesize_master,
)
from repro.flock import (
    FingerprintController,
    FlockError,
    FlockModule,
    Frame,
    FrameHashEngine,
    ImageFingerprintProcessor,
    ModeledFingerprintProcessor,
    ProtectedFlash,
    ServiceRecord,
    SramModel,
    StorageError,
)
from repro.flock.display import SCROLL_QUANTUM_PX, DisplayRepeater
from repro.flock.fingerprint_processor import (
    MODELED_ACCEPT_THRESHOLD,
    QUALITY_THRESHOLD,
)
from repro.hardware import (
    FLOCK_SENSOR,
    PlacedSensor,
    SensorArray,
    SensorLayout,
    TouchEvent,
    TouchPanel,
)


@pytest.fixture(scope="module")
def alice_master():
    return synthesize_master("alice-thumb", np.random.default_rng(5))


@pytest.fixture(scope="module")
def alice_template(alice_master):
    return enroll_master(alice_master, np.random.default_rng(6))


@pytest.fixture(scope="module")
def eve_master():
    return synthesize_master("eve-thumb", np.random.default_rng(500))


@pytest.fixture()
def layout():
    return SensorLayout(56, 94, [PlacedSensor(FLOCK_SENSOR, 20, 60, label="s0")])


@pytest.fixture()
def flock(layout, alice_template):
    module = FlockModule("dev-test", b"seed-test", layout)
    module.enroll_local_user(alice_template)
    return module


def _touch_on_sensor(panel, i=0, finger="alice-thumb", pressure=0.5):
    return panel.locate(TouchEvent(
        time_s=float(i), x_mm=26.0 + (i % 5) * 0.5, y_mm=65.0 + (i % 3),
        pressure=pressure, finger_id=finger))


#: (pressure, speed mm/s): two steady touches, then four light, fast ones
#: that smear into captures below the quality gate.
_STEADY_AND_EVASIVE = [(0.5, 0.0), (0.8, 10.0), (0.02, 200.0),
                       (0.05, 150.0), (0.1, 100.0), (0.2, 80.0)]


def _captures(layout, master, touches, seed=11):
    """Capture one touch per (pressure, speed) pair over the sensor."""
    controller = FingerprintController(layout)
    panel = TouchPanel()
    rng = np.random.default_rng(seed)
    captures = []
    for i, (pressure, speed) in enumerate(touches):
        touch = panel.locate(TouchEvent(
            time_s=float(i), x_mm=26.0, y_mm=65.0, pressure=pressure,
            speed_mm_s=speed, finger_id=master.finger_id))
        capture = controller.capture(touch, master, rng)
        assert capture is not None
        captures.append(capture)
    return captures


class TestStorage:
    def _record(self, domain="www.xyz.com"):
        rng = HmacDrbg(b"storage-test")
        kp = generate_keypair(rng, bits=1024)
        server = generate_keypair(rng, bits=1024)
        template = enroll_master(
            synthesize_master("f", np.random.default_rng(0)),
            np.random.default_rng(1))
        return ServiceRecord(domain=domain, account="ab12",
                             key_pair=kp, fingerprint=template,
                             server_public_key=server.public_key)

    def test_add_and_fetch(self):
        flash = ProtectedFlash()
        record = self._record()
        flash.add_record(record)
        assert flash.record("www.xyz.com") is record
        assert flash.has_record("www.xyz.com")
        assert [r.domain for r in flash.all_records()] == ["www.xyz.com"]

    def test_duplicate_rejected(self):
        flash = ProtectedFlash()
        flash.add_record(self._record())
        with pytest.raises(StorageError, match="already exists"):
            flash.add_record(self._record())

    def test_capacity(self):
        flash = ProtectedFlash(capacity_records=1)
        flash.add_record(self._record("a.com"))
        with pytest.raises(StorageError, match="capacity"):
            flash.add_record(self._record("b.com"))

    def test_missing_record(self):
        with pytest.raises(StorageError, match="no record"):
            ProtectedFlash().record("nope.com")

    def test_remove(self):
        flash = ProtectedFlash()
        flash.add_record(self._record())
        flash.remove_record("www.xyz.com")
        assert not flash.has_record("www.xyz.com")
        with pytest.raises(StorageError):
            flash.remove_record("www.xyz.com")

    def test_public_view_excludes_private_key(self):
        record = self._record()
        view = record.public_view()
        assert view.public_key == record.key_pair.public_key
        assert {f.name for f in dataclasses.fields(view)} == {
            "domain", "account", "public_key"}

    def test_device_template(self):
        flash = ProtectedFlash()
        assert not flash.has_device_template
        with pytest.raises(StorageError):
            flash.device_template()

    def test_sram_accounting(self):
        sram = SramModel(capacity_bytes=100)
        sram.allocate(60)
        sram.allocate(30)
        assert sram.peak_bytes == 90
        with pytest.raises(StorageError):
            sram.allocate(20)
        sram.release(50)
        sram.allocate(20)
        assert sram.used_bytes == 60

    def test_sram_invalid_release(self):
        sram = SramModel()
        with pytest.raises(ValueError):
            sram.release(1)


class TestDisplay:
    def test_same_frame_same_hash(self):
        engine = FrameHashEngine()
        frame = Frame(b"<html>page</html>")
        assert engine.hash_frame(frame) == engine.hash_frame(frame)

    def test_different_page_different_hash(self):
        engine = FrameHashEngine()
        assert engine.hash_frame(Frame(b"a")) != engine.hash_frame(Frame(b"b"))

    def test_zoom_changes_hash(self):
        engine = FrameHashEngine()
        assert engine.hash_frame(Frame(b"p", zoom=1.0)) \
            != engine.hash_frame(Frame(b"p", zoom=2.0))

    def test_scroll_quantization(self):
        engine = FrameHashEngine()
        a = engine.hash_frame(Frame(b"p", scroll_px=0))
        b = engine.hash_frame(Frame(b"p", scroll_px=SCROLL_QUANTUM_PX - 1))
        c = engine.hash_frame(Frame(b"p", scroll_px=SCROLL_QUANTUM_PX))
        assert a == b  # same quantum bucket
        assert a != c

    def test_md5_mode(self):
        engine = FrameHashEngine(algorithm="md5")
        assert len(engine.hash_frame(Frame(b"p"))) == 16
        with pytest.raises(ValueError):
            FrameHashEngine(algorithm="sha1")

    def test_reachable_views_finite_and_contains_hash(self):
        frame = Frame(b"page-content", scroll_px=64, zoom=1.5)
        views = Frame(b"page-content").reachable_views(max_scroll_px=128)
        engine = FrameHashEngine()
        hashes = {engine.hash_frame(v) for v in views}
        # The displayed view's hash is inside the finite audit set.
        assert engine.hash_frame(frame) in hashes
        assert len(views) == len(list(views))

    def test_repeater_retains_current(self):
        repeater = DisplayRepeater()
        digest = repeater.show(Frame(b"page"))
        assert repeater.current_hash == digest
        new_digest = repeater.apply_view_change(zoom=2.0)
        assert new_digest != digest
        assert repeater.current_frame.zoom == 2.0

    def test_repeater_before_first_frame(self):
        repeater = DisplayRepeater()
        with pytest.raises(RuntimeError):
            _ = repeater.current_hash


class TestTouchPipeline:
    def test_genuine_touches_verify_at_reasonable_rate(
            self, flock, alice_master):
        panel = TouchPanel()
        rng = np.random.default_rng(1)
        results = [
            flock.handle_touch(_touch_on_sensor(panel, i), alice_master, rng)
            for i in range(20)
        ]
        captured = sum(r.captured for r in results)
        verified = sum(r.verified for r in results)
        # Panel quantization (2.3 mm electrode pitch) pushes a few touches
        # outside the sensor's usable margin — most are still captured.
        assert captured >= 14
        # Per-touch genuine verification is deliberately imperfect (partial
        # edge captures, motion); ~30-60 % is the operating range that the
        # k-of-n window is designed around.
        assert verified >= captured * 0.3

    def test_impostor_touches_do_not_verify(self, flock, eve_master):
        panel = TouchPanel()
        rng = np.random.default_rng(2)
        results = [
            flock.handle_touch(
                _touch_on_sensor(panel, i, finger="eve-thumb"),
                eve_master, rng)
            for i in range(15)
        ]
        assert sum(r.verified for r in results) == 0

    def test_off_sensor_touch_not_captured(self, flock, alice_master):
        panel = TouchPanel()
        rng = np.random.default_rng(3)
        touch = panel.locate(TouchEvent(time_s=0, x_mm=5, y_mm=5,
                                        finger_id="alice-thumb"))
        result = flock.handle_touch(touch, alice_master, rng)
        assert not result.captured and result.decision is None
        assert result.capture_time_s == 0.0

    def test_capture_time_accounted(self, flock, alice_master):
        panel = TouchPanel()
        rng = np.random.default_rng(4)
        result = flock.handle_touch(_touch_on_sensor(panel), alice_master, rng)
        assert result.captured
        assert 0.0 < result.capture_time_s < 0.005  # sub-5ms window capture

    def test_unenrolled_module_rejects(self, layout, alice_master):
        module = FlockModule("dev-x", b"seed-x", layout)
        panel = TouchPanel()
        with pytest.raises(FlockError, match="no user enrolled"):
            module.handle_touch(_touch_on_sensor(panel), alice_master,
                                np.random.default_rng(0))

    @pytest.mark.parametrize("mode", ["image", "modeled"])
    def test_processor_mode(self, layout, alice_template, alice_master,
                            mode):
        """The mode alone picks the processor: one enrollment call."""
        module = FlockModule("dev-m", b"seed-m", layout, processor_mode=mode)
        module.enroll_local_user(alice_template)
        panel = TouchPanel()
        rng = np.random.default_rng(0)
        results = [
            module.handle_touch(_touch_on_sensor(panel, i), alice_master, rng)
            for i in range(10)
        ]
        assert sum(r.verified for r in results) >= 5

    def test_modeled_processor_gates_like_image(self, layout, alice_template,
                                                alice_master):
        """Both fidelities run the same quality gate: same report, same
        pass/fail, and a discarded capture is never scored."""
        image = ImageFingerprintProcessor(alice_template)
        modeled = ModeledFingerprintProcessor(alice_template.finger_id)
        passed = []
        for capture in _captures(layout, alice_master, _STEADY_AND_EVASIVE):
            by_image = image.authenticate(capture, np.random.default_rng(0))
            by_model = modeled.authenticate(capture, np.random.default_rng(0))
            assert by_model.quality == by_image.quality
            assert by_model.quality_ok == by_image.quality_ok == (
                by_model.quality.score >= QUALITY_THRESHOLD)
            if not by_model.quality_ok:
                assert by_model.score == 0.0 and not by_model.accepted
            passed.append(by_model.quality_ok)
        assert set(passed) == {True, False}

    def test_modeled_scores_come_from_the_partial_model(self, layout,
                                                        alice_master,
                                                        eve_master):
        """The modeled processor holds the calibrated partial-touch model:
        the enrolled finger draws genuine scores, any other impostor ones."""
        modeled = ModeledFingerprintProcessor("alice-thumb")
        scores = {}
        for master, genuine in ((alice_master, True), (eve_master, False)):
            capture, = _captures(layout, master, [(0.5, 0.0)])
            decision = modeled.authenticate(capture, np.random.default_rng(3))
            expected = DEFAULT_PARTIAL_MODEL.sample(genuine,
                                                    np.random.default_rng(3))
            assert decision.quality_ok
            assert decision.score == expected
            assert decision.accepted == (expected >= MODELED_ACCEPT_THRESHOLD)
            scores[genuine] = decision.score
        assert scores[True] != scores[False]

    def test_controller_scans_the_rendered_window(self, layout, alice_master):
        """The sensor thresholds the rendered window's own values: same
        bits as the comparator applied to the impression, in its shape."""
        reference = SensorArray(FLOCK_SENSOR).comparator_reference
        for capture in _captures(layout, alice_master, _STEADY_AND_EVASIVE):
            window = capture.hardware.window
            assert capture.impression.image.shape == \
                (window.n_rows, window.n_cols)
            assert np.array_equal(capture.hardware.image,
                                  capture.impression.image > reference)
            assert capture.hardware.cells_sensed == window.n_cells

    def test_invalid_processor_mode(self, layout):
        with pytest.raises(ValueError):
            FlockModule("d", b"s", layout, processor_mode="quantum")


class TestServiceBinding:
    @pytest.fixture()
    def ca(self):
        return CertificateAuthority(rng=HmacDrbg(b"ca-flock-test"),
                                    key_bits=1024)

    @pytest.fixture()
    def server_key(self):
        return generate_keypair(HmacDrbg(b"server-flock"), bits=1024)

    def test_binding_lifecycle(self, flock, ca, server_key, alice_template):
        flock.install_ca(ca.public_key)
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key)
        pk = flock.begin_service_binding("www.xyz.com", "ab12", cert, now=0)
        view = flock.complete_service_binding("www.xyz.com", alice_template)
        assert view.public_key == pk
        assert view.domain == "www.xyz.com"
        assert flock.flash.has_record("www.xyz.com")

    def test_binding_requires_ca(self, flock, ca, server_key):
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key)
        with pytest.raises(FlockError, match="no CA"):
            flock.begin_service_binding("www.xyz.com", "a", cert, now=0)

    def test_binding_rejects_wrong_subject(self, flock, ca, server_key):
        flock.install_ca(ca.public_key)
        cert = ca.issue("www.evil.com", "web-server", server_key.public_key)
        with pytest.raises(CertificateError, match="does not match"):
            flock.begin_service_binding("www.xyz.com", "a", cert, now=0)

    def test_binding_rejects_forged_cert(self, flock, ca, server_key):
        flock.install_ca(ca.public_key)
        rogue = CertificateAuthority(rng=HmacDrbg(b"rogue"), key_bits=1024)
        cert = rogue.issue("www.xyz.com", "web-server", server_key.public_key)
        with pytest.raises(CertificateError, match="signature"):
            flock.begin_service_binding("www.xyz.com", "a", cert, now=0)

    def test_double_binding_rejected(self, flock, ca, server_key,
                                     alice_template):
        flock.install_ca(ca.public_key)
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key)
        flock.begin_service_binding("www.xyz.com", "a", cert, now=0)
        flock.complete_service_binding("www.xyz.com", alice_template)
        with pytest.raises(FlockError, match="already bound"):
            flock.begin_service_binding("www.xyz.com", "a", cert, now=0)

    def test_abort_drops_the_pending_binding(self, flock, ca, server_key,
                                             alice_template):
        flock.install_ca(ca.public_key)
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key)
        flock.begin_service_binding("www.xyz.com", "a", cert, now=0)
        flock.abort_service_binding("www.xyz.com")
        with pytest.raises(FlockError, match="no pending binding"):
            flock.complete_service_binding("www.xyz.com", alice_template)
        flock.abort_service_binding("www.xyz.com")  # none pending: no-op
        flock.begin_service_binding("www.xyz.com", "a", cert, now=0)
        flock.complete_service_binding("www.xyz.com", alice_template)
        assert flock.flash.has_record("www.xyz.com")

    def test_passed_in_device_key_draws_nothing(self, layout):
        """A module handed its key pair (a fleet batch's) keeps it and
        leaves its DRBG stream where a fresh one starts."""
        key = generate_keypair(HmacDrbg(b"batch-key"), bits=512)
        module = FlockModule("dev-batch", b"seed-batch", layout,
                             key_bits=512, device_key=key)
        assert module.public_key == key.public_key
        fresh = HmacDrbg(b"seed-batch", personalization=b"dev-batch")
        assert module.crypto.rng.generate(32) == fresh.generate(32)

    def test_complete_without_begin(self, flock, alice_template):
        with pytest.raises(FlockError, match="no pending binding"):
            flock.complete_service_binding("www.other.com", alice_template)

    def test_unbind(self, flock, ca, server_key, alice_template):
        flock.install_ca(ca.public_key)
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key)
        flock.begin_service_binding("www.xyz.com", "a", cert, now=0)
        flock.complete_service_binding("www.xyz.com", alice_template)
        flock.unbind_service("www.xyz.com")
        assert not flock.flash.has_record("www.xyz.com")

    def test_unbind_forgets_session_and_challenge(self, flock, ca,
                                                  server_key, alice_template):
        """Unbinding a logged-in domain leaves no key that can MAC for it
        and no challenge that can be attested."""
        flock.install_ca(ca.public_key)
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key)
        flock.begin_service_binding("www.xyz.com", "a", cert, now=0)
        flock.complete_service_binding("www.xyz.com", alice_template)
        flock.open_session("www.xyz.com")
        flock.begin_challenge("www.xyz.com", b"challenge-nonce")
        flock.unbind_service("www.xyz.com")
        assert not flock.has_session("www.xyz.com")
        with pytest.raises(FlockError, match="no open session"):
            flock.session_mac("www.xyz.com", b"request")
        with pytest.raises(FlockError, match="no pending challenge"):
            flock.attest_challenge("www.xyz.com")

    def test_session_lifecycle(self, flock, ca, server_key, alice_template):
        """The session key leaves only sealed for the server; FLock MACs
        and verifies under it until the session closes."""
        flock.install_ca(ca.public_key)
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key)
        flock.begin_service_binding("www.xyz.com", "a", cert, now=0)
        flock.complete_service_binding("www.xyz.com", alice_template)
        session_key = server_key.decrypt(flock.open_session("www.xyz.com"))
        assert len(session_key) == 32
        tag = flock.session_mac("www.xyz.com", b"payload")
        assert tag == hmac_sha256(session_key, b"payload")
        assert flock.verify_session_mac("www.xyz.com", b"payload", tag)
        assert not flock.verify_session_mac("www.xyz.com", b"other", tag)
        flock.close_session("www.xyz.com")
        with pytest.raises(FlockError, match="no open session"):
            flock.session_mac("www.xyz.com", b"payload")

    def test_signatures_for_service(self, flock, ca, server_key,
                                    alice_template):
        flock.install_ca(ca.public_key)
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key)
        pk = flock.begin_service_binding("www.xyz.com", "a", cert, now=0)
        flock.complete_service_binding("www.xyz.com", alice_template)
        sig = flock.sign_for_service("www.xyz.com", b"message")
        assert pk.verify(b"message", sig)

    def test_seal_for_server(self, flock, ca, server_key, alice_template):
        flock.install_ca(ca.public_key)
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key)
        flock.begin_service_binding("www.xyz.com", "a", cert, now=0)
        flock.complete_service_binding("www.xyz.com", alice_template)
        sealed = flock.seal_for_server("www.xyz.com", b"session-key")
        assert server_key.decrypt(sealed) == b"session-key"


class TestDeviceIdentity:
    def test_device_keys_unique_per_seed(self, layout):
        a = FlockModule("dev-a", b"seed-a", layout)
        b = FlockModule("dev-b", b"seed-b", layout)
        assert a.public_key != b.public_key

    def test_certificate_installation(self, layout):
        module = FlockModule("dev-c", b"seed-c", layout)
        ca = CertificateAuthority(rng=HmacDrbg(b"ca2"), key_bits=1024)
        cert = ca.issue("dev-c", "flock-device", module.public_key)
        module.set_certificate(cert)
        assert module.certificate is cert

    def test_wrong_certificate_rejected(self, layout):
        module = FlockModule("dev-d", b"seed-d", layout)
        other = generate_keypair(HmacDrbg(b"other"), bits=1024)
        ca = CertificateAuthority(rng=HmacDrbg(b"ca3"), key_bits=1024)
        cert = ca.issue("dev-d", "flock-device", other.public_key)
        with pytest.raises(FlockError, match="does not match"):
            module.set_certificate(cert)

    def test_device_signature(self, layout):
        module = FlockModule("dev-e", b"seed-e", layout)
        sig = module.sign_as_device(b"attest")
        assert module.public_key.verify(b"attest", sig)


class TestFrameThroughModule:
    def test_show_frame_returns_hash(self, flock):
        digest = flock.show_frame(Frame(b"<html>login</html>"))
        assert flock.current_frame_hash == digest
        assert len(digest) == 32

    def test_sram_restored_after_frame(self, flock):
        flock.show_frame(Frame(b"x" * 1000))
        assert flock.sram.used_bytes == 0
        assert flock.sram.peak_bytes >= 1000


class TestIdentityTransfer:
    def _bound_flock(self, layout, alice_template):
        flock = FlockModule("dev-old", b"seed-old", layout)
        flock.enroll_local_user(alice_template)
        ca = CertificateAuthority(rng=HmacDrbg(b"ca-transfer"), key_bits=1024)
        server = generate_keypair(HmacDrbg(b"srv-transfer"), bits=1024)
        flock.install_ca(ca.public_key)
        cert = ca.issue("www.xyz.com", "web-server", server.public_key)
        flock.begin_service_binding("www.xyz.com", "ab12", cert, now=0)
        flock.complete_service_binding("www.xyz.com", alice_template)
        return flock

    def test_transfer_roundtrip(self, layout, alice_template):
        old = self._bound_flock(layout, alice_template)
        new = FlockModule("dev-new", b"seed-new", layout)
        bundle = old.export_identity(new.public_key,
                                     authorizing_touch_verified=True)
        installed = new.import_identity(bundle)
        assert installed == ["www.xyz.com"]
        assert new.flash.has_record("www.xyz.com")
        assert new.flash.has_device_template
        # The transferred service key signs identically.
        message = b"post-transfer"
        sig = new.sign_for_service("www.xyz.com", message)
        old_view = old.flash.record("www.xyz.com").public_view()
        assert old_view.public_key.verify(message, sig)

    def test_transfer_requires_fingerprint_authorization(
            self, layout, alice_template):
        old = self._bound_flock(layout, alice_template)
        new = FlockModule("dev-new2", b"seed-new2", layout)
        with pytest.raises(FlockError, match="authorization"):
            old.export_identity(new.public_key,
                                authorizing_touch_verified=False)

    def test_bundle_unreadable_by_third_device(self, layout, alice_template):
        old = self._bound_flock(layout, alice_template)
        new = FlockModule("dev-new3", b"seed-new3", layout)
        thief = FlockModule("dev-thief", b"seed-thief", layout)
        bundle = old.export_identity(new.public_key,
                                     authorizing_touch_verified=True)
        with pytest.raises(Exception):
            thief.import_identity(bundle)

    def test_import_conflict_raises_flock_error(self, layout, alice_template):
        old = self._bound_flock(layout, alice_template)
        new = FlockModule("dev-new4", b"seed-new4", layout)
        bundle = old.export_identity(new.public_key,
                                     authorizing_touch_verified=True)
        new.import_identity(bundle)
        bundle2 = old.export_identity(new.public_key,
                                      authorizing_touch_verified=True)
        with pytest.raises(FlockError, match="import failed"):
            new.import_identity(bundle2)
