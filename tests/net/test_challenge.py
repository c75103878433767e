"""Server-issued re-authentication challenges + FLock attestations."""

import numpy as np
import pytest

from repro.crypto import hmac_sha256
from repro.flock import FlockError
from repro.net import (
    Envelope,
    ProtocolError,
    TrustClient,
    UntrustedChannel,
)
from .conftest import BUTTON_XY


@pytest.fixture()
def live_session(deployment, alice_master):
    device, server = deployment
    client = TrustClient(device, server, UntrustedChannel())
    rng = np.random.default_rng(60)
    outcome = client.login("alice", BUTTON_XY, alice_master, rng)
    assert outcome.success, outcome.reason
    device.flock._pending_challenges.pop(server.domain, None)
    yield device, server, client, outcome.session, rng
    device.flock._pending_challenges.pop(server.domain, None)
    device.flock.close_session(server.domain)


class TestChallengeFlow:
    def test_elevated_risk_triggers_challenge(self, live_session):
        device, server, client, session, rng = live_session
        result = client.request(session, risk=0.6, rng=rng)
        assert not result.success
        assert result.reason == "challenge-required"
        assert session.challenge_nonce is not None
        state = server.session(session.session_id)
        assert state.challenges_issued == 1
        assert state.pending_challenge is not None

    def test_low_risk_not_challenged(self, live_session):
        device, server, client, session, rng = live_session
        result = client.request(session, risk=0.2, rng=rng)
        assert result.success

    def test_genuine_user_passes_challenge(self, live_session, alice_master):
        device, server, client, session, rng = live_session
        client.request(session, risk=0.6, rng=rng)
        result = client.answer_challenge(session, BUTTON_XY, alice_master, rng)
        assert result.success, result.reason
        assert session.challenge_nonce is None
        # Session resumes normally.
        follow_up = client.request(session, risk=0.1, rng=rng)
        assert follow_up.success
        state = server.session(session.session_id)
        assert state.challenges_passed == 1

    def test_impostor_cannot_pass_challenge(self, live_session, eve_master):
        device, server, client, session, rng = live_session
        client.request(session, risk=0.6, rng=rng)
        result = client.answer_challenge(session, BUTTON_XY, eve_master, rng)
        assert not result.success
        assert result.reason == "fingerprint-not-verified"
        # Content stays withheld: the next request is challenged again.
        frozen = client.request(session, risk=0.6, rng=rng)
        assert frozen.reason == "challenge-required"

    def test_challenge_without_pending_rejected(self, live_session,
                                                alice_master):
        device, server, client, session, rng = live_session
        result = client.answer_challenge(session, BUTTON_XY, alice_master, rng)
        assert result.reason == "no-challenge-pending"

    def test_forged_attestation_rejected(self, live_session, alice_master):
        """Malware holding the session-MAC oracle still cannot attest."""
        device, server, client, session, rng = live_session
        client.request(session, risk=0.6, rng=rng)
        forged = Envelope("challenge-response", {
            "account": session.account,
            "session": session.session_id,
            "nonce": session.next_nonce,
            "attestation": hmac_sha256(b"guess" * 7, b"flock-attest:x"),
        })
        forged.set_mac(device.flock.session_mac(session.domain,
                                                forged.signed_bytes()))
        with pytest.raises(ProtocolError) as exc_info:
            server.dispatch(forged)
        assert exc_info.value.reason == "bad-attestation"


class TestAttestationBoundary:
    def test_session_mac_refuses_attest_prefix(self, live_session):
        """The generic MAC oracle cannot mint attestations."""
        device, server, _, _, _ = live_session
        with pytest.raises(FlockError, match="attest"):
            device.flock.session_mac(server.domain,
                                     b"flock-attest:forged-nonce")

    def test_attest_requires_fresh_verified_touch(self, live_session):
        device, server, _, _, _ = live_session
        device.flock.begin_challenge(server.domain, b"nonce-xyz")
        with pytest.raises(FlockError, match="verified fingerprint"):
            device.flock.attest_challenge(server.domain)

    def test_attest_without_challenge(self, live_session):
        device, server, _, _, _ = live_session
        with pytest.raises(FlockError, match="no pending challenge"):
            device.flock.attest_challenge(server.domain)

    def test_attest_consumes_challenge(self, live_session, alice_master):
        device, server, _, _, rng = live_session
        device.flock.begin_challenge(server.domain, b"nonce-abc")
        verified = False
        for attempt in range(6):
            _, outcome = device.touch_at(BUTTON_XY[0], BUTTON_XY[1],
                                         float(attempt), alice_master, rng)
            if outcome.verified:
                verified = True
                break
        assert verified
        attestation = device.flock.attest_challenge(server.domain)
        assert len(attestation) == 32
        with pytest.raises(FlockError, match="no pending challenge"):
            device.flock.attest_challenge(server.domain)
