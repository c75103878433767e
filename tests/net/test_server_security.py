"""Server-side verification: nonces, MACs, sessions, audit (section IV-B)."""

import numpy as np
import pytest

from repro.crypto import hmac_sha256
from repro.flock import Frame, FrameHashEngine
from repro.net import (
    Envelope,
    ProtocolError,
    TrustClient,
    UntrustedChannel,
)
from .conftest import BUTTON_XY


class TestServerVerification:
    def test_tampered_login_risk_detected(self, deployment, channel,
                                          alice_master):
        """An on-path attacker lowering the reported risk breaks the MAC."""
        device, server = deployment

        def tamper(envelope, direction):
            if envelope.msg_type == "login-submit":
                envelope.fields["risk"] = 0.0
            return envelope

        tampering = UntrustedChannel(tamper_hook=tamper)
        outcome = TrustClient(device, server, tampering).login(
            "alice", BUTTON_XY, alice_master, np.random.default_rng(0),
            risk=0.4)
        assert not outcome.success
        assert outcome.reason == "bad-mac"
        assert server.rejections["bad-mac"] >= 1

    def test_tampered_request_frame_hash_detected(self, deployment, channel,
                                                  alice_master):
        device, server = deployment
        rng = np.random.default_rng(1)
        outcome = TrustClient(device, server, channel).login(
            "alice", BUTTON_XY, alice_master, rng)
        assert outcome.success

        def tamper(envelope, direction):
            if envelope.msg_type == "page-request":
                envelope.fields["frame_hash"] = b"\x00" * 32
            return envelope

        tampering = UntrustedChannel(tamper_hook=tamper)
        result = TrustClient(device, server, tampering).request(
            outcome.session, risk=0.0, rng=rng)
        assert not result.success
        assert result.reason == "bad-mac"
        device.flock.close_session(server.domain)

    def test_forged_request_without_session_key_fails(self, deployment,
                                                      channel, alice_master):
        """Malware knows account/session/nonce but not the session key."""
        device, server = deployment
        rng = np.random.default_rng(2)
        outcome = TrustClient(device, server, channel).login(
            "alice", BUTTON_XY, alice_master, rng)
        assert outcome.success
        session = outcome.session
        forged = Envelope("page-request", {
            "account": session.account,
            "session": session.session_id,
            "nonce": session.next_nonce,
            "frame_hash": b"\x11" * 32,
            "risk": 0.0,
        })
        forged.set_mac(hmac_sha256(b"guessed-key" * 3, forged.signed_bytes()))
        with pytest.raises(ProtocolError) as exc_info:
            server.dispatch(forged)
        assert exc_info.value.reason == "bad-mac"
        device.flock.close_session(server.domain)

    def test_replayed_request_rejected(self, deployment, channel,
                                       alice_master):
        device, server = deployment
        rng = np.random.default_rng(3)
        client = TrustClient(device, server, channel)
        outcome = client.login("alice", BUTTON_XY, alice_master, rng)
        assert outcome.success
        result = client.request(outcome.session, risk=0.0, rng=rng)
        assert result.success
        replayed = channel.recorded("page-request")[-1].envelope
        with pytest.raises(ProtocolError) as exc_info:
            server.dispatch(replayed)
        assert exc_info.value.reason == "bad-nonce"
        device.flock.close_session(server.domain)

    def test_unknown_session_rejected(self, deployment):
        _, server = deployment
        bogus = Envelope("page-request", {
            "account": "alice", "session": "nope",
            "nonce": b"\x00" * 16, "frame_hash": b"\x00" * 32, "risk": 0.0,
        })
        bogus.set_mac(b"\x00" * 32)
        with pytest.raises(ProtocolError, match="unknown-session"):
            server.dispatch(bogus)

    def test_duplicate_account_creation(self, deployment):
        _, server = deployment
        with pytest.raises(ValueError):
            server.create_account("alice", "x")


class TestFrameHashAudit:
    def test_honest_frames_pass_audit(self, deployment, channel,
                                      alice_master):
        device, server = deployment
        rng = np.random.default_rng(4)
        client = TrustClient(device, server, channel)
        outcome = client.login("alice", BUTTON_XY, alice_master, rng)
        assert outcome.success
        for i in range(3):
            client.request(outcome.session, risk=0.0, rng=rng)
        # The server enumerates the finite reachable-view hash set of the
        # pages it served and checks the logged hashes against it.
        engine = FrameHashEngine()
        valid = set()
        for page in server.pages.values():
            for view in Frame(page).reachable_views(max_scroll_px=256):
                valid.add(engine.hash_frame(view))
        # Content pages carry a per-request suffix; include those.
        for n in range(1, 10):
            page = server.pages["content"] + f" request #{n}".encode()
            for view in Frame(page).reachable_views(max_scroll_px=256):
                valid.add(engine.hash_frame(view))
        matching, total = server.audit_frame_hashes("alice", valid)
        assert total >= 4
        assert matching == total  # honest browser: every frame verifies
        device.flock.close_session(server.domain)
