"""Pipeline, policies, local identity manager, remote coordinator."""

import numpy as np
import pytest

from repro.core import (
    CriticalButtonRule,
    DeviceState,
    IdentityRiskTracker,
    LocalIdentityManager,
    MinTouchTimeRule,
    ResponseAction,
    ResponsePolicy,
    TrustCoordinator,
)
from repro.crypto import CertificateAuthority, HmacDrbg
from repro.fingerprint import enroll_master, synthesize_master
from repro.net import MobileDevice, TrustClient, UntrustedChannel, WebServer
from repro.touchgen import (
    SessionConfig,
    SessionGenerator,
    example_users,
    make_swipe,
    make_tap,
    standard_layouts,
)

UNLOCK_XY = (28.0, 80.0)


@pytest.fixture(scope="module")
def alice_master():
    return synthesize_master("user1-right-thumb", np.random.default_rng(5))


@pytest.fixture(scope="module")
def eve_master():
    return synthesize_master("eve-thumb", np.random.default_rng(900))


@pytest.fixture(scope="module")
def alice_template(alice_master):
    return enroll_master(alice_master, np.random.default_rng(6))


@pytest.fixture()
def manager(alice_template):
    device = MobileDevice("dev-core", b"seed-core")
    device.flock.enroll_local_user(alice_template)
    return LocalIdentityManager(flock=device.flock, panel=device.panel,
                                unlock_button_xy=UNLOCK_XY)


def _unlock(manager, master, rng, attempts=5):
    for i in range(attempts):
        if manager.try_unlock(master, rng, time_s=i * 0.4):
            return True
    return False


class TestPolicies:
    def test_response_ladder(self):
        policy = ResponsePolicy(challenge_risk=0.5, halt_risk=0.8)
        assert policy.action_for(0.2, False) is ResponseAction.NONE
        assert policy.action_for(0.6, False) is ResponseAction.CHALLENGE
        assert policy.action_for(0.9, False) is ResponseAction.HALT_INTERACTION
        assert policy.action_for(0.2, True) is ResponseAction.LOCK_DEVICE

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ResponsePolicy(challenge_risk=0.9, halt_risk=0.5)
        with pytest.raises(ValueError):
            ResponsePolicy(challenge_risk=1.5)

    def test_min_touch_time_rule(self):
        rule = MinTouchTimeRule(min_duration_s=0.05)
        long_tap = make_tap(0.0, 10, 10, 0.5, 0.1, "f")
        flick = make_tap(0.0, 10, 10, 0.5, 0.02, "f")
        assert rule.permits(long_tap)
        assert not rule.permits(flick)
        with pytest.raises(ValueError):
            MinTouchTimeRule(min_duration_s=0)

    def test_critical_button_rule(self, manager):
        """Countermeasure 1: every critical button sits over a sensor."""
        rule = CriticalButtonRule(manager.flock.controller.layout)
        layouts = standard_layouts()
        for layout in layouts.values():
            assert rule.uncovered_critical_elements(layout) == []

    def test_critical_button_rule_flags_bad_layout(self, manager):
        from repro.touchgen import UiElement, UiLayout
        rule = CriticalButtonRule(manager.flock.controller.layout)
        bad = UiLayout("bad", 56, 94, (
            UiElement("send-money", 2, 2, 10, 6, critical=True),
        ))
        assert rule.uncovered_critical_elements(bad) == ["send-money"]


class TestLocalManager:
    def test_starts_locked_and_unlocks_on_verified_touch(self, manager,
                                                         alice_master):
        rng = np.random.default_rng(1)
        assert manager.state is DeviceState.LOCKED
        assert _unlock(manager, alice_master, rng)
        assert manager.state is DeviceState.UNLOCKED

    def test_impostor_cannot_unlock(self, manager, eve_master):
        rng = np.random.default_rng(2)
        assert not _unlock(manager, eve_master, rng, attempts=8)
        assert manager.state is DeviceState.LOCKED

    def test_unlock_button_must_be_over_sensor(self, alice_template):
        device = MobileDevice("dev-bad", b"seed-bad")
        device.flock.enroll_local_user(alice_template)
        with pytest.raises(ValueError, match="unlock button"):
            LocalIdentityManager(flock=device.flock, panel=device.panel,
                                 unlock_button_xy=(5.0, 5.0))

    def test_locked_device_ignores_gestures(self, manager, alice_master):
        rng = np.random.default_rng(3)
        tap = make_tap(0.0, 28, 80, 0.5, 0.1, alice_master.finger_id)
        result = manager.process_gesture(tap, alice_master, rng)
        assert result.event is None
        assert result.state is DeviceState.LOCKED

    def test_genuine_user_stays_unlocked(self, manager, alice_master):
        rng = np.random.default_rng(4)
        assert _unlock(manager, alice_master, rng)
        trace = SessionGenerator(example_users()[0]).generate(
            SessionConfig(n_interactions=60), seed=7)
        for gesture in trace.gestures:
            manager.process_gesture(gesture, alice_master, rng)
        assert manager.locks == 0
        assert manager.state is not DeviceState.LOCKED

    def test_impostor_takeover_locks_device(self, manager, alice_master,
                                            eve_master):
        rng = np.random.default_rng(5)
        assert _unlock(manager, alice_master, rng)
        trace = SessionGenerator(example_users()[0]).generate(
            SessionConfig(n_interactions=120), seed=8)
        for gesture in trace.gestures[:30]:
            manager.process_gesture(gesture, alice_master, rng)
        takeover = len(manager.pipeline.events)
        locked = False
        for gesture in trace.gestures[30:]:
            result = manager.process_gesture(gesture, eve_master, rng)
            if result.state is DeviceState.LOCKED:
                locked = True
                break
        assert locked
        latency = manager.detection_latency(takeover)
        assert latency is not None and latency <= 90

    def test_too_brief_touch_ignored(self, manager, alice_master):
        rng = np.random.default_rng(6)
        assert _unlock(manager, alice_master, rng)
        flick = make_tap(10.0, 28, 80, 0.5, 0.01, alice_master.finger_id)
        result = manager.process_gesture(flick, alice_master, rng)
        assert result.event is None  # countermeasure 2: not even counted

    def test_fast_swipes_degrade_to_low_quality_not_verification(
            self, manager, alice_master):
        """A fast swipe over a sensor should not produce verified captures."""
        rng = np.random.default_rng(7)
        assert _unlock(manager, alice_master, rng)
        swipe = make_swipe(10.0, (28.0, 80.0), (28.0, 40.0),
                           duration_s=0.08,  # 500 mm/s — very fast
                           pressure=0.5, finger_id=alice_master.finger_id)
        result = manager.process_gesture(swipe, alice_master, rng)
        if result.event is not None and result.event.auth.captured:
            assert not result.event.verified


class TestRemoteCoordinator:
    @pytest.fixture(scope="class")
    def deployment(self, alice_master, alice_template):
        ca = CertificateAuthority(rng=HmacDrbg(b"ca-core"), key_bits=1024)
        device = MobileDevice("dev-remote", b"seed-remote", ca=ca)
        device.flock.enroll_local_user(alice_template)
        server = WebServer("www.bank.com", ca, b"server-core")
        server.create_account("alice", "pw")
        channel = UntrustedChannel()
        outcome = TrustClient(device, server, channel).register(
            "alice", UNLOCK_XY, alice_master, np.random.default_rng(0))
        assert outcome.success
        return device, server, channel

    def test_genuine_session_completes(self, deployment, alice_master):
        device, server, channel = deployment
        rng = np.random.default_rng(10)
        trace = SessionGenerator(example_users()[0]).generate(
            SessionConfig(n_interactions=25), seed=11)
        coordinator = TrustCoordinator(device, server, channel, "alice")
        masters = {alice_master.finger_id: alice_master}
        report = coordinator.run_session(trace.gestures, masters, rng,
                                         login_master=alice_master)
        assert report.login.success
        assert report.requests_ok > 0
        assert len(report.risk_series) == report.gestures_processed
        device.flock.close_session(server.domain)

    def test_hijacked_session_terminated(self, deployment, alice_master,
                                         eve_master):
        device, server, channel = deployment
        rng = np.random.default_rng(12)
        trace = SessionGenerator(example_users()[0]).generate(
            SessionConfig(n_interactions=80), seed=13)
        coordinator = TrustCoordinator(device, server, channel, "alice")
        # Eve holds the phone for the whole post-login phase.
        masters = {alice_master.finger_id: eve_master}
        report = coordinator.run_session(trace.gestures, masters, rng,
                                         login_master=alice_master)
        assert report.login.success  # Alice logged in...
        assert report.terminated  # ...but Eve got cut off
        assert report.termination_reason == "risk-too-high"
        assert not device.flock.has_session(server.domain)

    def test_risk_series_rises_under_hijack(self, deployment, alice_master,
                                            eve_master):
        device, server, channel = deployment
        rng = np.random.default_rng(14)
        trace = SessionGenerator(example_users()[0]).generate(
            SessionConfig(n_interactions=80), seed=15)
        coordinator = TrustCoordinator(device, server, channel, "alice")
        masters = {alice_master.finger_id: eve_master}
        report = coordinator.run_session(trace.gestures, masters, rng,
                                         login_master=alice_master)
        if len(report.risk_series) >= 5:
            assert report.risk_series[-1] > report.risk_series[0]
        device.flock.close_session(server.domain)
