"""Property-based protocol fuzzing: ANY in-flight mutation must be rejected.

Every field of every TRUST envelope is covered by a MAC or signature, so an
on-path adversary who flips, replaces, or retypes any field must cause a
verification failure at the receiving end.  Hypothesis drives the mutation
space; the deployment is shared (fresh channel per example).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.eval import LOGIN_BUTTON_XY, standard_deployment
from repro.net import TrustClient, UntrustedChannel


@pytest.fixture(scope="module")
def world():
    return standard_deployment(seed=55)


def _mutate_bytes(value: bytes, index: int) -> bytes:
    if not value:
        return b"\x01"
    index %= len(value)
    return value[:index] + bytes([value[index] ^ 0x01]) + value[index + 1:]


def _mutate(value, index):
    if isinstance(value, bytes):
        return _mutate_bytes(value, index)
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    raise AssertionError(f"unexpected field type {type(value)}")


# The fields of the two post-login message types, by direction.
REQUEST_FIELDS = ("account", "session", "nonce", "frame_hash", "risk", "mac")
LOGIN_FIELDS = ("domain", "account", "nonce", "sealed_session_key",
                "frame_hash", "risk", "signature", "mac")


class TestRequestTampering:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(REQUEST_FIELDS),
           byte_index=st.integers(min_value=0, max_value=63))
    def test_any_request_field_mutation_rejected(self, world, field,
                                                 byte_index):
        rng = np.random.default_rng(byte_index)

        def tamper(envelope, direction):
            if envelope.msg_type == "page-request" and field in envelope.fields:
                envelope.fields[field] = _mutate(envelope.fields[field],
                                                 byte_index)
            return envelope

        outcome = TrustClient(world.device, world.server).login(
            world.account, LOGIN_BUTTON_XY, world.user_master, rng)
        assert outcome.success, outcome.reason
        try:
            tampering = TrustClient(world.device, world.server,
                                    UntrustedChannel(tamper_hook=tamper))
            result = tampering.request(outcome.session, risk=0.0, rng=rng)
            assert not result.success
            assert result.reason in ("bad-mac", "bad-nonce",
                                     "unknown-session", "wrong-account",
                                     "malformed-message")
        finally:
            world.device.flock.close_session(world.server.domain)


class TestLoginTampering:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(LOGIN_FIELDS),
           byte_index=st.integers(min_value=0, max_value=63))
    def test_any_login_field_mutation_rejected(self, world, field,
                                               byte_index):
        rng = np.random.default_rng(1000 + byte_index)

        def tamper(envelope, direction):
            if envelope.msg_type == "login-submit" and field in envelope.fields:
                envelope.fields[field] = _mutate(envelope.fields[field],
                                                 byte_index)
            return envelope

        try:
            channel = UntrustedChannel(tamper_hook=tamper)
            outcome = TrustClient(world.device, world.server, channel).login(
                world.account, LOGIN_BUTTON_XY, world.user_master, rng)
            assert not outcome.success
            assert outcome.reason in (
                "bad-mac", "bad-nonce", "bad-session-key", "wrong-domain",
                "unknown-account", "malformed-message", "risk-too-high",
                "bad-device-signature")
        finally:
            world.device.flock.close_session(world.server.domain)


class TestServerResponseTampering:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(("page", "nonce", "session", "mac")),
           byte_index=st.integers(min_value=0, max_value=63))
    def test_tampered_content_page_rejected_by_device(self, world, field,
                                                      byte_index):
        """The device verifies server MACs too: tampering the *downlink*
        (e.g. swapping the page a user is about to act on) is caught."""
        rng = np.random.default_rng(2000 + byte_index)

        def tamper(envelope, direction):
            if (direction == "to-device"
                    and envelope.msg_type == "content-page"
                    and field in envelope.fields):
                envelope.fields[field] = _mutate(envelope.fields[field],
                                                 byte_index)
            return envelope

        try:
            channel = UntrustedChannel(tamper_hook=tamper)
            outcome = TrustClient(world.device, world.server, channel).login(
                world.account, LOGIN_BUTTON_XY, world.user_master, rng)
            assert not outcome.success
            assert outcome.reason == "bad-content-mac"
        finally:
            world.device.flock.close_session(world.server.domain)


REGISTRATION_SUBMIT_FIELDS = ("domain", "account", "nonce",
                              "user_public_key", "frame_hash",
                              "device_cert", "mac")
REGISTRATION_PAGE_FIELDS = ("domain", "nonce", "page", "server_cert", "mac")


class TestRegistrationTampering:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(REGISTRATION_SUBMIT_FIELDS),
           byte_index=st.integers(min_value=0, max_value=63))
    def test_any_submission_mutation_rejected(self, field, byte_index):
        from repro.net import WebServer

        world = standard_deployment(seed=55)
        server = WebServer(f"www.fuzz-{field}-{byte_index % 4}.example",
                           world.ca, b"fuzz-server")
        server.create_account("alice", "pw")
        rng = np.random.default_rng(3000 + byte_index)

        def tamper(envelope, direction):
            if (envelope.msg_type == "registration-submit"
                    and field in envelope.fields):
                envelope.fields[field] = _mutate(envelope.fields[field],
                                                 byte_index)
            return envelope

        channel = UntrustedChannel(tamper_hook=tamper)
        try:
            outcome = TrustClient(world.device, server, channel).register(
                "alice", LOGIN_BUTTON_XY, world.user_master, rng)
        finally:
            world.device.flock._pending_bindings.pop(server.domain, None)
            if world.device.flock.flash.has_record(server.domain):
                world.device.flock.unbind_service(server.domain)
        assert not outcome.success
        # Either a verification failure, or (for domain mutations) the
        # message landed at the wrong service entirely.
        assert outcome.reason in (
            "bad-mac", "bad-nonce", "bad-device-cert", "wrong-domain",
            "unknown-account", "malformed-message",
            "fingerprint-not-verified")
        # The attacker's mutation never produced a key binding.
        assert server.account_key("alice") is None

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(REGISTRATION_PAGE_FIELDS),
           byte_index=st.integers(min_value=0, max_value=63))
    def test_any_page_mutation_rejected_by_device(self, field, byte_index):
        from repro.net import WebServer

        world = standard_deployment(seed=55)
        server = WebServer(f"www.fuzzp-{field}-{byte_index % 4}.example",
                           world.ca, b"fuzzp-server")
        server.create_account("alice", "pw")
        rng = np.random.default_rng(4000 + byte_index)

        def tamper(envelope, direction):
            if (envelope.msg_type == "registration-page"
                    and field in envelope.fields):
                envelope.fields[field] = _mutate(envelope.fields[field],
                                                 byte_index)
            return envelope

        channel = UntrustedChannel(tamper_hook=tamper)
        try:
            outcome = TrustClient(world.device, server, channel).register(
                "alice", LOGIN_BUTTON_XY, world.user_master, rng)
        finally:
            world.device.flock._pending_bindings.pop(server.domain, None)
            if world.device.flock.flash.has_record(server.domain):
                world.device.flock.unbind_service(server.domain)
        # Mutating the *page* body changes the displayed frame but not the
        # protocol's integrity... except the MAC covers it, so the device
        # must reject before touching.
        assert not outcome.success
        assert ("device-rejected" in outcome.reason
                or outcome.reason in ("bad-server-mac", "bad-nonce",
                                      "unknown-account", "bad-mac",
                                      "fingerprint-not-verified"))
        assert server.account_key("alice") is None
