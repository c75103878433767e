"""End-to-end Fig. 9 / Fig. 10 protocol runs, reset and transfer."""

import numpy as np
import pytest

from repro.crypto import CertificateAuthority, HmacDrbg
from repro.fingerprint import enroll_master, synthesize_master
from repro.flock import FlockError
from repro.net import (
    MobileDevice,
    ProtocolError,
    TransferError,
    TrustClient,
    UntrustedChannel,
    WebServer,
    transfer_identity,
)
from .conftest import BUTTON_XY


class TestRegistration:
    def test_registration_binds_key(self, ca, alice_master):
        template = enroll_master(alice_master, np.random.default_rng(6))
        device = MobileDevice("dev-r1", b"seed-r1", ca=ca)
        device.flock.enroll_local_user(template)
        server = WebServer("www.reg.com", ca, b"server-r1")
        server.create_account("alice", "pw")
        outcome = TrustClient(device, server).register(
            "alice", BUTTON_XY, alice_master, np.random.default_rng(0))
        assert outcome.success
        bound = server.account_key("alice")
        view = device.flock.flash.record("www.reg.com").public_view()
        assert bound == view.public_key
        assert outcome.messages == 3
        assert outcome.frame_hash is not None
        # Frame hash was logged for audit.
        assert server.frame_audit_log[-1][0] == "alice"

    def test_registration_rejects_unknown_account(self, ca, alice_master):
        template = enroll_master(alice_master, np.random.default_rng(6))
        device = MobileDevice("dev-r2", b"seed-r2", ca=ca)
        device.flock.enroll_local_user(template)
        server = WebServer("www.reg2.com", ca, b"server-r2")
        outcome = TrustClient(device, server).register(
            "nobody", BUTTON_XY, alice_master, np.random.default_rng(0))
        assert not outcome.success
        assert outcome.reason == "unknown-account"

    def test_impostor_finger_cannot_register(self, ca, alice_master,
                                             eve_master):
        template = enroll_master(alice_master, np.random.default_rng(6))
        device = MobileDevice("dev-r3", b"seed-r3", ca=ca)
        device.flock.enroll_local_user(template)
        server = WebServer("www.reg3.com", ca, b"server-r3")
        server.create_account("alice", "pw")
        outcome = TrustClient(device, server).register(
            "alice", BUTTON_XY, eve_master, np.random.default_rng(0))
        assert not outcome.success
        assert outcome.reason == "fingerprint-not-verified"
        assert server.account_key("alice") is None

    @pytest.mark.parametrize("failure", ["bad-server-mac",
                                         "fingerprint-not-verified"])
    def test_failed_registration_drops_the_pending_binding(
            self, ca, alice_master, eve_master, failure):
        """A registration that fails after FLock minted pk_A leaves no
        binding pending: it cannot be completed, and a retry succeeds."""
        template = enroll_master(alice_master, np.random.default_rng(6))
        device = MobileDevice("dev-r5", b"seed-r5", ca=ca)
        device.flock.enroll_local_user(template)
        server = WebServer("www.reg5.com", ca, b"server-r5")
        server.create_account("alice", "pw")

        def forge_page_mac(envelope, direction):
            if envelope.msg_type == "registration-page":
                mac = envelope.mac
                envelope.set_mac(bytes([mac[0] ^ 1]) + mac[1:])
            return envelope

        if failure == "bad-server-mac":
            channel = UntrustedChannel(tamper_hook=forge_page_mac)
            finger = alice_master
        else:
            channel, finger = UntrustedChannel(), eve_master
        outcome = TrustClient(device, server, channel).register(
            "alice", BUTTON_XY, finger, np.random.default_rng(0))
        assert outcome.reason == failure
        with pytest.raises(FlockError, match="no pending binding"):
            device.flock.complete_service_binding(server.domain)
        retry = TrustClient(device, server).register(
            "alice", BUTTON_XY, alice_master, np.random.default_rng(1))
        assert retry.success, retry.reason

    def test_registration_nonce_single_use(self, ca, alice_master):
        """Replaying a recorded registration submission must fail."""
        template = enroll_master(alice_master, np.random.default_rng(6))
        device = MobileDevice("dev-r4", b"seed-r4", ca=ca)
        device.flock.enroll_local_user(template)
        server = WebServer("www.reg4.com", ca, b"server-r4")
        server.create_account("alice", "pw")
        channel = UntrustedChannel()
        outcome = TrustClient(device, server, channel).register(
            "alice", BUTTON_XY, alice_master, np.random.default_rng(0))
        assert outcome.success
        recorded = channel.recorded("registration-submit")[0].envelope
        with pytest.raises(ProtocolError) as exc_info:
            server.dispatch(recorded)
        assert exc_info.value.reason in ("already-bound", "bad-nonce")


class TestContinuousAuth:
    def test_login_and_requests(self, deployment, channel, alice_master):
        device, server = deployment
        client = TrustClient(device, server, channel)
        rng = np.random.default_rng(20)
        outcome = client.login("alice", BUTTON_XY, alice_master, rng)
        assert outcome.success, outcome.reason
        session = outcome.session
        for i in range(5):
            result = client.request(session, risk=0.05, rng=rng,
                                    touch_xy=BUTTON_XY, master=alice_master,
                                    time_s=100.0 + i)
            assert result.success, result.reason
        state = server.session(session.session_id)
        assert state.request_count == 5
        device.flock.close_session(server.domain)

    def test_fresh_nonce_per_request(self, deployment, channel, alice_master):
        device, server = deployment
        client = TrustClient(device, server, channel)
        rng = np.random.default_rng(21)
        outcome = client.login("alice", BUTTON_XY, alice_master, rng)
        assert outcome.success
        session = outcome.session
        nonces = {bytes(session.next_nonce)}
        for i in range(4):
            client.request(session, risk=0.0, rng=rng, time_s=200.0 + i)
            nonces.add(bytes(session.next_nonce))
        assert len(nonces) == 5
        device.flock.close_session(server.domain)

    def test_high_risk_terminates_session(self, deployment, channel,
                                          alice_master):
        device, server = deployment
        client = TrustClient(device, server, channel)
        rng = np.random.default_rng(22)
        outcome = client.login("alice", BUTTON_XY, alice_master, rng)
        assert outcome.success
        session = outcome.session
        result = client.request(session, risk=0.9, rng=rng)
        assert not result.success
        assert result.reason == "risk-too-high"
        assert server.session(session.session_id) is None
        # Device-side session key was destroyed too.
        assert not device.flock.has_session(server.domain)

    def test_login_with_high_risk_rejected(self, deployment, channel,
                                           alice_master):
        device, server = deployment
        rng = np.random.default_rng(23)
        outcome = TrustClient(device, server, channel).login(
            "alice", BUTTON_XY, alice_master, rng, risk=0.95)
        assert not outcome.success
        assert outcome.reason == "risk-too-high"
        assert not device.flock.has_session(server.domain)

    def test_impostor_cannot_login(self, deployment, channel, eve_master):
        device, server = deployment
        rng = np.random.default_rng(24)
        outcome = TrustClient(device, server, channel).login(
            "alice", BUTTON_XY, eve_master, rng)
        assert not outcome.success
        assert outcome.reason == "fingerprint-not-verified"

    def test_session_crypto_cost_accounted(self, deployment, channel,
                                           alice_master):
        device, server = deployment
        client = TrustClient(device, server, channel)
        rng = np.random.default_rng(25)
        outcome = client.login("alice", BUTTON_XY, alice_master, rng)
        assert outcome.success
        assert outcome.crypto_time_s > 0
        result = client.request(outcome.session, risk=0.0, rng=rng)
        # Post-login requests use only symmetric crypto: much cheaper.
        assert result.crypto_time_s < outcome.crypto_time_s
        device.flock.close_session(server.domain)


class TestResetAndTransfer:
    @pytest.fixture()
    def fresh_deployment(self, ca, alice_master):
        template = enroll_master(alice_master, np.random.default_rng(6))
        device = MobileDevice("dev-t1", b"seed-t1", ca=ca)
        device.flock.enroll_local_user(template)
        server = WebServer("www.t.com", ca, b"server-t1")
        server.create_account("alice", "correct-password")
        channel = UntrustedChannel()
        outcome = TrustClient(device, server, channel).register(
            "alice", BUTTON_XY, alice_master, np.random.default_rng(0))
        assert outcome.success
        return device, server, channel

    def test_reset_then_rebind(self, fresh_deployment, ca, alice_master):
        device, server, channel = fresh_deployment
        server.reset_identity("alice", "correct-password")
        assert server.account_key("alice") is None
        # Old device's binding is dead: login fails server-side.
        outcome = TrustClient(device, server, channel).login(
            "alice", BUTTON_XY, alice_master, np.random.default_rng(1))
        assert not outcome.success
        # Re-register from a new device.
        template = enroll_master(alice_master, np.random.default_rng(6))
        new_device = MobileDevice("dev-t2", b"seed-t2", ca=ca)
        new_device.flock.enroll_local_user(template)
        outcome = TrustClient(new_device, server, channel).register(
            "alice", BUTTON_XY, alice_master, np.random.default_rng(2))
        assert outcome.success

    def test_reset_wrong_password(self, fresh_deployment):
        _, server, _ = fresh_deployment
        with pytest.raises(ProtocolError, match="bad-password"):
            server.reset_identity("alice", "wrong")
        assert server.account_key("alice") is not None

    def test_transfer_preserves_login(self, fresh_deployment, ca,
                                      alice_master):
        device, server, channel = fresh_deployment
        new_device = MobileDevice("dev-t3", b"seed-t3", ca=ca)
        rng = np.random.default_rng(3)
        domains = transfer_identity(device, new_device, BUTTON_XY,
                                    alice_master, rng)
        assert domains == ["www.t.com"]
        outcome = TrustClient(new_device, server, channel).login(
            "alice", BUTTON_XY, alice_master, rng)
        assert outcome.success, outcome.reason
        new_device.flock.close_session(server.domain)

    def test_modeled_transfer_enrolls_new_device(self, ca, alice_master):
        """An imported identity enrolls the new device in modeled mode too,
        so its first login succeeds instead of raising "no user enrolled"."""
        template = enroll_master(alice_master, np.random.default_rng(6))
        old_device = MobileDevice("dev-m1", b"seed-m1", ca=ca,
                                  processor_mode="modeled", key_bits=512)
        old_device.flock.enroll_local_user(template)
        server = WebServer("www.modeled.com", ca, b"server-m1", key_bits=512)
        server.create_account("alice", "pw")
        channel = UntrustedChannel()
        rng = np.random.default_rng(12)
        outcome = TrustClient(old_device, server, channel).register(
            "alice", BUTTON_XY, alice_master, rng)
        assert outcome.success, outcome.reason
        new_device = MobileDevice("dev-m2", b"seed-m2", ca=ca,
                                  processor_mode="modeled", key_bits=512)
        assert transfer_identity(old_device, new_device, BUTTON_XY,
                                 alice_master, rng) == ["www.modeled.com"]
        outcome = TrustClient(new_device, server, channel).login(
            "alice", BUTTON_XY, alice_master, rng)
        assert outcome.reason == "ok"
        new_device.flock.close_session(server.domain)

    def test_transfer_blocked_for_impostor(self, fresh_deployment, ca,
                                           eve_master):
        device, _, _ = fresh_deployment
        new_device = MobileDevice("dev-t4", b"seed-t4", ca=ca)
        with pytest.raises(TransferError):
            transfer_identity(device, new_device, BUTTON_XY, eve_master,
                              np.random.default_rng(4))
