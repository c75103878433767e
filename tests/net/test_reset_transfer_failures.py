"""Failure paths seeded from ``repro.analysis.verify`` abstract traces.

Each test re-enacts, against the real protocol stack, an adversary or
failure trace the model checker explores symbolically: replayed
challenge answers (PV403), out-of-order downlink delivery (the
``adv-channel`` stale-challenge reorder), wrong-password resets,
interrupted transfers, and logins from a retired device (PV404/PV405).
"""

import numpy as np
import pytest

from repro.fingerprint import enroll_master
from repro.flock import FlockError
from repro.net import (
    MobileDevice,
    ProtocolError,
    TransferError,
    TrustClient,
    UntrustedChannel,
    WebServer,
    reset_identity,
    transfer_identity,
)
from .conftest import BUTTON_XY


@pytest.fixture()
def fresh_world(ca, alice_master):
    """A private device/server pair for state-destroying tests."""
    device = MobileDevice("dev-rtf", b"seed-rtf", ca=ca)
    device.flock.enroll_local_user(
        enroll_master(alice_master, np.random.default_rng(7)))
    server = WebServer("www.rtf.example", ca, b"server-rtf")
    server.create_account("alice", "alice-password")
    outcome = TrustClient(device, server).register(
        "alice", BUTTON_XY, alice_master, np.random.default_rng(11))
    assert outcome.success, outcome.reason
    return device, server


@pytest.fixture()
def live_session(deployment, alice_master):
    device, server = deployment
    client = TrustClient(device, server, UntrustedChannel())
    rng = np.random.default_rng(81)
    outcome = client.login("alice", BUTTON_XY, alice_master, rng)
    assert outcome.success, outcome.reason
    device.flock._pending_challenges.pop(server.domain, None)
    yield device, server, client, outcome.session, rng
    device.flock._pending_challenges.pop(server.domain, None)
    device.flock.close_session(server.domain)


class TestChallengeAnswerReplay:
    """Model trace: adv-login replays a recorded chal-resp (PV403)."""

    def test_replay_after_pass_rejected(self, live_session, alice_master):
        device, server, client, session, rng = live_session
        client.request(session, risk=0.6, rng=rng)
        result = client.answer_challenge(session, BUTTON_XY, alice_master, rng)
        assert result.success, result.reason
        replayed = client.channel.recorded("challenge-response")[-1].envelope
        with pytest.raises(ProtocolError) as exc_info:
            server.dispatch(replayed)
        assert exc_info.value.reason == "no-challenge-pending"

    def test_replay_against_new_challenge_rejected(self, live_session,
                                                   alice_master):
        """A stale answer must not clear a *later* challenge."""
        device, server, client, session, rng = live_session
        client.request(session, risk=0.6, rng=rng)
        result = client.answer_challenge(session, BUTTON_XY, alice_master, rng)
        assert result.success, result.reason
        stale = client.channel.recorded("challenge-response")[-1].envelope
        # A second elevated-risk request opens a fresh challenge.
        client.request(session, risk=0.6, rng=rng)
        state = server.session(session.session_id)
        assert state.pending_challenge is not None
        with pytest.raises(ProtocolError) as exc_info:
            server.dispatch(stale)
        assert exc_info.value.reason == "bad-nonce"
        # The challenge is still pending: the replay cleared nothing.
        assert state.pending_challenge is not None
        assert state.challenges_passed == 1


class TestOutOfOrderDelivery:
    """Model trace: adv-channel re-delivers a stale challenge downlink."""

    def test_reordered_challenge_desyncs_but_grants_nothing(
            self, live_session, alice_master):
        device, server, client, session, rng = live_session
        client.request(session, risk=0.6, rng=rng)
        result = client.answer_challenge(session, BUTTON_XY, alice_master, rng)
        assert result.success, result.reason
        stale_challenge = client.channel.recorded("challenge")[-1].envelope

        def reorder(envelope, direction):
            if (direction == "to-device"
                    and envelope.msg_type == "content-page"):
                return stale_challenge
            return envelope

        reordering = UntrustedChannel(tamper_hook=reorder)
        # The stale challenge carries a valid session MAC, so the device
        # accepts it and re-enters the challenge flow with a stale nonce.
        result = TrustClient(device, server, reordering).request(
            session, risk=0.0, rng=rng)
        assert result.reason == "challenge-required"
        # Answering the resurrected challenge grants nothing: the server
        # has no challenge pending and the nonce is stale.
        answered = client.answer_challenge(session, BUTTON_XY, alice_master,
                                           rng)
        assert not answered.success
        assert answered.reason in ("no-challenge-pending", "bad-nonce")
        # The desynced device cannot continue the session either.
        follow_up = client.request(session, risk=0.0, rng=rng)
        assert not follow_up.success
        assert follow_up.reason == "bad-nonce"


class TestResetFailurePaths:
    def test_wrong_password_leaves_binding_and_sessions(self, fresh_world,
                                                        alice_master):
        device, server = fresh_world
        client = TrustClient(device, server)
        rng = np.random.default_rng(21)
        outcome = client.login("alice", BUTTON_XY, alice_master, rng)
        assert outcome.success, outcome.reason
        before = server.rejections["bad-password"]
        with pytest.raises(ProtocolError) as exc_info:
            reset_identity(server, "alice", "wrong-password")
        assert exc_info.value.reason == "bad-password"
        assert server.rejections["bad-password"] == before + 1
        # Nothing was revoked: binding and session both survive.
        assert server.account_key("alice") is not None
        assert server.active_sessions == 1
        result = client.request(outcome.session, risk=0.0, rng=rng)
        assert result.success, result.reason
        device.flock.close_session(server.domain)

    def test_unknown_account_reset_rejected(self, fresh_world):
        _, server = fresh_world
        with pytest.raises(ProtocolError, match="unknown-account"):
            reset_identity(server, "mallory", "whatever")

    def test_reset_terminates_live_sessions(self, fresh_world, alice_master):
        """Model invariant PV405: no session may outlive its binding."""
        device, server = fresh_world
        client = TrustClient(device, server)
        rng = np.random.default_rng(22)
        outcome = client.login("alice", BUTTON_XY, alice_master, rng)
        assert outcome.success, outcome.reason
        assert server.active_sessions == 1
        assert reset_identity(server, "alice", "alice-password")
        assert server.account_key("alice") is None
        assert server.active_sessions == 0
        result = client.request(outcome.session, risk=0.0, rng=rng)
        assert not result.success
        assert result.reason == "unknown-session"
        device.flock.close_session(server.domain)


class TestTransferFailurePaths:
    def test_impostor_cannot_authorize_transfer(self, fresh_world, ca,
                                                alice_master, eve_master):
        device, server = fresh_world
        new_device = MobileDevice("dev-rtf-new", b"seed-rtf-new", ca=ca)
        with pytest.raises(TransferError, match="did not verify"):
            transfer_identity(device, new_device, BUTTON_XY, eve_master,
                              np.random.default_rng(31))
        # The old device keeps its binding and can still log in.
        assert device.flock.flash.has_record(server.domain)
        outcome = TrustClient(device, server).login(
            "alice", BUTTON_XY, alice_master, np.random.default_rng(32))
        assert outcome.success, outcome.reason
        device.flock.close_session(server.domain)

    def test_interrupted_transfer_leaves_old_device_intact(
            self, fresh_world, ca, alice_master, monkeypatch):
        """A transfer dropped mid-way must not retire the old device."""
        device, server = fresh_world
        new_device = MobileDevice("dev-rtf-drop", b"seed-rtf-drop", ca=ca)

        def dropped(bundle):
            raise FlockError("import failed: bundle truncated in transit")

        monkeypatch.setattr(new_device.flock, "import_identity", dropped)
        with pytest.raises(FlockError, match="truncated"):
            transfer_identity(device, new_device, BUTTON_XY, alice_master,
                              np.random.default_rng(33))
        # Old device untouched, new device got nothing.
        assert device.flock.flash.has_record(server.domain)
        assert not new_device.flock.flash.has_record(server.domain)
        outcome = TrustClient(device, server).login(
            "alice", BUTTON_XY, alice_master, np.random.default_rng(34))
        assert outcome.success, outcome.reason
        device.flock.close_session(server.domain)

    def test_old_device_retired_after_transfer(self, fresh_world, ca,
                                               alice_master):
        """Model invariant PV404: only one device bound per account."""
        device, server = fresh_world
        client = TrustClient(device, server)
        rng = np.random.default_rng(35)
        outcome = client.login("alice", BUTTON_XY, alice_master, rng)
        assert outcome.success, outcome.reason
        new_device = MobileDevice("dev-rtf-up", b"seed-rtf-up", ca=ca)
        domains = transfer_identity(device, new_device, BUTTON_XY,
                                    alice_master, rng)
        assert server.domain in domains
        # The old device's record *and* open session are gone.
        assert not device.flock.flash.has_record(server.domain)
        stale = client.request(outcome.session, risk=0.0, rng=rng)
        assert not stale.success
        assert stale.reason.startswith("device-rejected")
        old_login = TrustClient(device, server).login(
            "alice", BUTTON_XY, alice_master, rng)
        assert not old_login.success
        # The new device logs in with no server-side change at all.
        new_login = TrustClient(new_device, server).login(
            "alice", BUTTON_XY, alice_master, rng)
        assert new_login.success, new_login.reason
        new_device.flock.close_session(server.domain)
