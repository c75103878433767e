"""The adversary library vs TRUST and vs the cookie baseline."""

import numpy as np
import pytest

from repro.attacks import (
    certificate_substitution_attack,
    evasion_attack,
    fake_touch_attack,
    key_substitution_attack,
    replay_cookie_request,
    replay_trust_traffic,
    takeover_attack,
    tamper_risk_attack,
    ui_spoof_attack,
    unlock_attack,
)
from repro.baselines import CookieWebServer
from repro.core import LocalIdentityManager
from repro.eval import LOGIN_BUTTON_XY, standard_deployment
from repro.net import TrustClient
from repro.touchgen import UserTouchModel


@pytest.fixture(scope="module")
def world():
    return standard_deployment(seed=77)


@pytest.fixture()
def manager(world):
    return LocalIdentityManager(flock=world.device.flock,
                                panel=world.device.panel,
                                unlock_button_xy=LOGIN_BUTTON_XY)


def _unlock(manager, master, rng):
    for i in range(6):
        if manager.try_unlock(master, rng, time_s=i * 0.4):
            return True
    return False


class TestPhysicalAttacks:
    def test_impostor_unlock_blocked(self, manager, world):
        result = unlock_attack(manager, world.impostor_master,
                               np.random.default_rng(0), attempts=15)
        assert not result.succeeded
        assert result.detected

    def test_unlock_attack_needs_locked_device(self, manager, world):
        assert _unlock(manager, world.user_master, np.random.default_rng(1))
        with pytest.raises(ValueError):
            unlock_attack(manager, world.impostor_master,
                          np.random.default_rng(2))

    def test_takeover_detected(self, manager, world):
        rng = np.random.default_rng(3)
        assert _unlock(manager, world.user_master, rng)
        behaviour = UserTouchModel("eve", world.impostor_master.finger_id)
        result = takeover_attack(manager, world.impostor_master, behaviour,
                                 rng, max_touches=200)
        assert not result.succeeded
        assert result.detected
        assert result.evidence["touches_to_lock"] is not None
        assert result.evidence["touches_to_lock"] <= 200

    def test_evasion_attack_contained(self, manager, world):
        rng = np.random.default_rng(4)
        assert _unlock(manager, world.user_master, rng)
        result = evasion_attack(manager, world.impostor_master, rng,
                                max_touches=120)
        # Either the window locked the device, or the min-touch-time rule
        # starved the attacker of accepted interactions.
        if result.detected:
            assert result.evidence["touches_to_lock"] is not None
        else:
            assert result.evidence["useful_actions"] <= 120 * 0.7


class TestChannelAttacks:
    def test_trust_rejects_request_replay(self, world):
        rng = np.random.default_rng(5)
        channel = world.fresh_channel()
        client = TrustClient(world.device, world.server, channel)
        outcome = client.login(world.account, LOGIN_BUTTON_XY,
                               world.user_master, rng)
        assert outcome.success, outcome.reason
        for _ in range(3):
            result = client.request(outcome.session, risk=0.0, rng=rng)
            assert result.success
        replay = replay_trust_traffic(world.server, channel, "page-request")
        assert not replay.succeeded
        assert replay.detected
        assert replay.evidence["accepted"] == 0
        world.device.flock.close_session(world.server.domain)

    def test_trust_rejects_login_replay(self, world):
        rng = np.random.default_rng(6)
        channel = world.fresh_channel()
        outcome = TrustClient(world.device, world.server, channel).login(
            world.account, LOGIN_BUTTON_XY, world.user_master, rng)
        assert outcome.success
        world.device.flock.close_session(world.server.domain)
        replay = replay_trust_traffic(world.server, channel, "login-submit")
        assert not replay.succeeded

    def test_cookie_baseline_falls_to_replay(self):
        server = CookieWebServer("www.legacy.com", b"legacy")
        server.create_account("alice", "hunter2")
        cookie = server.login("alice", "hunter2").fields["cookie"]
        result = replay_cookie_request(server, cookie, n_replays=5)
        assert result.succeeded
        assert not result.detected
        assert result.evidence["accepted"] == 5

    def test_mitm_risk_laundering_blocked(self, world):
        result = tamper_risk_attack(world.device, world.server,
                                    world.account, LOGIN_BUTTON_XY,
                                    world.user_master,
                                    np.random.default_rng(7))
        assert not result.succeeded
        assert result.detected

    def test_mitm_key_substitution_blocked(self, world):
        # A second server + account keeps this registration independent.
        from repro.net import WebServer
        server = WebServer("www.victim.example", world.ca, b"victim-seed")
        server.create_account("alice", "pw")
        result = key_substitution_attack(world.device, server, "alice",
                                         LOGIN_BUTTON_XY, world.user_master,
                                         np.random.default_rng(8))
        assert not result.succeeded
        assert not result.evidence["attacker_bound"]
        world.device.flock.unbind_service("www.victim.example")

    def test_mitm_cert_substitution_blocked(self, world):
        from repro.net import WebServer
        server = WebServer("www.victim2.example", world.ca, b"victim2-seed")
        server.create_account("alice", "pw")
        result = certificate_substitution_attack(
            world.device, server, "alice", LOGIN_BUTTON_XY,
            world.user_master, np.random.default_rng(9))
        assert not result.succeeded
        assert result.detected


class TestMalwareAttacks:
    def test_ui_spoof_flagged_by_frame_audit(self, world):
        result = ui_spoof_attack(world.device, world.server, world.account,
                                 LOGIN_BUTTON_XY, world.user_master,
                                 np.random.default_rng(10))
        assert result.detected
        assert not result.succeeded

    def test_fake_touch_flood_terminated(self, world):
        result = fake_touch_attack(world.device, world.server, world.account,
                                   LOGIN_BUTTON_XY, world.user_master,
                                   np.random.default_rng(11))
        assert result.detected
        assert not result.succeeded
        assert result.evidence["accepted_before_termination"] < 30

    def test_malware_never_sees_secrets(self, world):
        """Exfiltrated traffic contains no private keys or templates."""
        from repro.net import Malware
        malware = Malware()
        world.device.browser.infect(malware)
        channel = world.fresh_channel()
        rng = np.random.default_rng(12)
        outcome = TrustClient(world.device, world.server, channel).login(
            world.account, LOGIN_BUTTON_XY, world.user_master, rng)
        world.device.browser.malware = None
        assert outcome.success
        record = world.device.flock.flash.record(world.server.domain)
        private_d = record.key_pair.d.to_bytes(
            (record.key_pair.d.bit_length() + 7) // 8, "big")
        template_bytes = record.fingerprint.to_bytes()
        session_key = world.device.flock._session_key(world.server.domain)
        for envelope in malware.exfiltrated:
            for value in envelope.fields.values():
                if isinstance(value, bytes):
                    assert private_d not in value
                    assert template_bytes[:64] not in value
                    assert session_key not in value
        world.device.flock.close_session(world.server.domain)
