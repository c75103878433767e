"""The uniform ``WebServer.dispatch`` API, version gate and wire codec."""

import numpy as np
import pytest

from repro.net import (
    MSG_CHALLENGE_RESPONSE,
    MSG_CONTENT_PAGE,
    MSG_LOGIN_SUBMIT,
    MSG_PAGE_REQUEST,
    MSG_REGISTRATION_SUBMIT,
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOL_VERSIONS,
    Envelope,
    ProtocolError,
    TrustClient,
    UntrustedChannel,
    WebServer,
    decode_envelope,
    encode_envelope,
)

from .conftest import BUTTON_XY


class TestEndpointRegistry:
    def test_every_message_type_routes_to_its_handler(self):
        registry = WebServer.ENDPOINTS
        assert registry[MSG_REGISTRATION_SUBMIT].handler \
            is WebServer._serve_registration
        assert registry[MSG_LOGIN_SUBMIT].handler is WebServer._serve_login
        assert registry[MSG_PAGE_REQUEST].handler is WebServer._serve_request
        assert registry[MSG_CHALLENGE_RESPONSE].handler \
            is WebServer._serve_challenge_response

    def test_registry_is_typed(self):
        for msg_type, endpoint in WebServer.ENDPOINTS.items():
            assert endpoint.msg_type == msg_type
            assert endpoint.summary
            assert endpoint.name.startswith("_serve_")

    def test_server_to_device_pages_are_not_endpoints(self):
        """Pages the *server* initiates never arrive as inbound traffic."""
        assert MSG_CONTENT_PAGE not in WebServer.ENDPOINTS
        assert "registration-page" not in WebServer.ENDPOINTS


class TestDispatch:
    def test_unknown_endpoint_rejected(self, ca):
        server = WebServer("www.d1.example", ca, b"dispatch-1")
        with pytest.raises(ProtocolError) as excinfo:
            server.dispatch(Envelope("cookie-request"))
        assert excinfo.value.reason == "unknown-endpoint"
        assert server.rejections["unknown-endpoint"] == 1

    def test_unsupported_version_rejected(self, ca):
        server = WebServer("www.d2.example", ca, b"dispatch-2")
        envelope = Envelope(MSG_PAGE_REQUEST, {}, version=2)
        with pytest.raises(ProtocolError) as excinfo:
            server.dispatch(envelope)
        assert excinfo.value.reason == "unsupported-version"
        assert server.rejections["unsupported-version"] == 1

    def test_version_gate_precedes_routing(self, ca):
        """A bad version fails closed even for unroutable types."""
        server = WebServer("www.d3.example", ca, b"dispatch-3")
        with pytest.raises(ProtocolError) as excinfo:
            server.dispatch(Envelope("no-such-type", {}, version=99))
        assert excinfo.value.reason == "unsupported-version"

    def test_dispatch_counts_endpoint_calls(self, deployment, alice_master,
                                            channel):
        device, server = deployment
        before = server.dispatch_calls.value(endpoint=MSG_LOGIN_SUBMIT)
        client = TrustClient(device, server, channel)
        outcome = client.login("alice", BUTTON_XY, alice_master,
                               np.random.default_rng(40))
        assert outcome.success, outcome.reason
        assert server.dispatch_calls.value(
            endpoint=MSG_LOGIN_SUBMIT) == before + 1
        device.flock.close_session(server.domain)


class TestDispatchParity:
    def test_registration_identical_across_same_seeded_servers(
            self, ca, deployment, alice_master):
        """The same submission binds identically on same-seeded servers."""
        device, _ = deployment
        server_a = WebServer("www.parity.example", ca, b"parity-seed")
        server_b = WebServer("www.parity.example", ca, b"parity-seed")
        for server in (server_a, server_b):
            server.create_account("alice", "pw")

        channel = UntrustedChannel()
        client = TrustClient(device, server_a, channel)
        outcome = client.register("alice", BUTTON_XY, alice_master,
                                  np.random.default_rng(41))
        assert outcome.success, outcome.reason
        ack_a = channel.recorded(MSG_CONTENT_PAGE, "to-device")[-1].envelope

        # Same key seed => server_b issues the same registration nonce;
        # replay the identical submission through its own dispatch.
        server_b.registration_page()
        submission = channel.recorded(MSG_REGISTRATION_SUBMIT,
                                      "to-server")[-1].envelope.copy()
        ack_b = server_b.dispatch(submission)

        assert ack_b.msg_type == ack_a.msg_type
        assert ack_b.fields == ack_a.fields  # includes the server MAC
        assert server_a.account_key("alice").to_bytes() == \
            server_b.account_key("alice").to_bytes()


class TestWireCodec:
    def test_round_trip_every_field_type(self):
        envelope = Envelope(MSG_PAGE_REQUEST, {
            "blob": b"\x00\xff wire bytes",
            "flag": True,
            "count": -17,
            "ratio": 0.1875,
            "text": "line one\nline two = tricky s:tuff",
        })
        decoded = decode_envelope(encode_envelope(envelope))
        assert decoded.msg_type == envelope.msg_type
        assert decoded.fields == envelope.fields
        assert decoded.version == PROTOCOL_VERSION

    def test_version_survives_round_trip(self):
        assert 1 in SUPPORTED_PROTOCOL_VERSIONS
        envelope = Envelope("login-submit", {"n": 1}, version=1)
        assert decode_envelope(encode_envelope(envelope)).version == 1

    def test_unknown_version_fails_closed(self):
        data = encode_envelope(Envelope("login-submit", {"n": 1}))
        bumped = data.replace(b" v1 ", b" v2 ", 1)
        with pytest.raises(ProtocolError) as excinfo:
            decode_envelope(bumped)
        assert excinfo.value.reason == "unsupported-version"

    @pytest.mark.parametrize("data", [
        b"not an envelope",
        b"trust-envelope v1",  # header too short
        b"trust-envelope vX login-submit",
        b"wrong-magic v1 login-submit",
        b"trust-envelope v1 ",  # empty message type
        b"trust-envelope v1 login-submit\nno-separator-line",
        b"trust-envelope v1 login-submit\n=empty-name",
        b"trust-envelope v1 login-submit\na=i:1\na=i:2",  # duplicate
        b"trust-envelope v1 login-submit\na=q:unknown-tag",
        b"trust-envelope v1 login-submit\na=i:not-an-int",
        b"trust-envelope v1 login-submit\na=b:zz",  # bad hex
        b"trust-envelope v1 login-submit\na=B:7",  # bad bool literal
        b"\xff\xfe\x00surrogate soup",
    ])
    def test_malformations_all_raise_one_reason(self, data):
        with pytest.raises(ProtocolError) as excinfo:
            decode_envelope(data)
        assert excinfo.value.reason == "malformed-message"

    def test_unsafe_field_name_refused_at_encode(self):
        with pytest.raises(TypeError):
            encode_envelope(Envelope("x", {"bad=name": 1}))
        with pytest.raises(TypeError):
            encode_envelope(Envelope("x", {"bad\nname": 1}))

    def test_copy_preserves_version(self):
        envelope = Envelope("x", {"n": 1}, version=PROTOCOL_VERSION)
        assert envelope.copy().version == envelope.version
