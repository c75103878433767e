"""Cookie-extension transport: envelope <-> Cookie header round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import hmac_sha256
from repro.net import (
    Envelope,
    ProtocolError,
    TrustClient,
    UntrustedChannel,
    cookie_size_bytes,
    decode_cookie,
    encode_cookie,
)
from .conftest import BUTTON_XY


class TestRoundTrip:
    def test_simple_envelope(self):
        envelope = Envelope("page-request", {
            "account": "alice", "nonce": b"\x01\x02", "risk": 0.25,
            "count": 7, "flag": True,
        })
        restored = decode_cookie(encode_cookie(envelope))
        assert restored.msg_type == envelope.msg_type
        assert restored.fields == envelope.fields

    def test_mac_survives_encoding(self):
        envelope = Envelope("page-request", {"nonce": b"\xff" * 16,
                                             "risk": 0.1})
        envelope.set_mac(hmac_sha256(b"key" * 11, envelope.signed_bytes()))
        restored = decode_cookie(encode_cookie(envelope))
        assert restored.signed_bytes() == envelope.signed_bytes()
        assert restored.mac == envelope.mac

    @given(st.dictionaries(
        st.text(alphabet="abcdefgh_", min_size=1, max_size=10),
        st.one_of(st.binary(max_size=40),
                  st.integers(min_value=-10**9, max_value=10**9),
                  st.text(alphabet="xyz; =,\"'", max_size=20),
                  st.booleans()),
        max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, fields):
        envelope = Envelope("t", fields)
        restored = decode_cookie(encode_cookie(envelope))
        assert restored.fields == fields

    def test_float_roundtrip_exact(self):
        envelope = Envelope("t", {"risk": 0.30000000000000004})
        restored = decode_cookie(encode_cookie(envelope))
        assert restored.fields["risk"] == 0.30000000000000004


class TestHeaderBehaviour:
    def test_foreign_cookies_ignored(self):
        header = ("sessionid=abc123; " + encode_cookie(Envelope("t", {"x": 1}))
                  + "; theme=dark")
        restored = decode_cookie(header)
        assert restored.msg_type == "t"
        assert restored.fields == {"x": 1}

    def test_missing_type_rejected(self):
        with pytest.raises(ProtocolError, match="missing trust-type"):
            decode_cookie("sessionid=abc; theme=dark")

    def test_malformed_value_rejected(self):
        valid = encode_cookie(Envelope("t", {}))
        with pytest.raises(ProtocolError, match="unknown type tag"):
            decode_cookie(valid + "; trust-x=Z###")
        with pytest.raises(ProtocolError, match="malformed-cookie"):
            decode_cookie(valid + "; trust-x=b%%%")  # bad base64

    def test_repeated_attribute_rejected(self):
        """A second ``trust-*`` attribute must not override the first:
        two encodings of one message with different nonces, joined into
        one header, used to decode to the second nonce."""
        first = encode_cookie(Envelope("page-request", {"nonce": b"\x02"}))
        second = encode_cookie(Envelope("page-request", {"nonce": b"\x01"}))
        with pytest.raises(ProtocolError,
                           match="malformed-cookie.*repeated trust-type"):
            decode_cookie(first + "; " + second)
        with pytest.raises(ProtocolError,
                           match="malformed-cookie.*repeated trust-nonce"):
            decode_cookie(first + "; trust-nonce=bAQ==")

    def test_padded_repeat_is_still_a_repeat(self):
        """Whitespace around an attribute name does not make a second
        copy of it a different attribute."""
        first = encode_cookie(Envelope("page-request", {"nonce": b"\x02"}))
        with pytest.raises(ProtocolError,
                           match="malformed-cookie.*repeated trust-nonce"):
            decode_cookie(first + ";   trust-nonce  =bAQ==")

    def test_repeated_foreign_cookie_still_ignored(self):
        """Only ``trust-*`` attributes must be unique: a site cookie the
        browser sends twice rides along as before."""
        valid = encode_cookie(Envelope("page-request", {"nonce": b"\x02"}))
        restored = decode_cookie(f"sid=a; {valid}; sid=b")
        assert restored.msg_type == "page-request"
        assert restored.fields == {"nonce": b"\x02"}

    def test_empty_value_rejected(self):
        with pytest.raises(ProtocolError, match="empty value"):
            decode_cookie("trust-type=")

    def test_unsafe_field_name_rejected(self):
        with pytest.raises(ValueError, match="cookie-safe"):
            encode_cookie(Envelope("t", {"bad name": 1}))

    def test_header_is_ascii(self):
        envelope = Envelope("t", {"data": bytes(range(256)), "s": "héllo"})
        header = encode_cookie(envelope)
        header.encode("ascii")  # must not raise
        assert decode_cookie(header).fields["s"] == "héllo"


class TestOverhead:
    def test_cookie_overhead_is_bounded(self, deployment, alice_master):
        """Real protocol messages fit comfortably in cookie limits (4 KiB)."""
        device, server = deployment
        rng = np.random.default_rng(70)
        channel = UntrustedChannel()
        outcome = TrustClient(device, server, channel).login(
            "alice", BUTTON_XY, alice_master, rng)
        assert outcome.success
        device.flock.close_session(server.domain)
        for record in channel.log:
            envelope = record.envelope
            if "page" in envelope.fields:
                continue  # page bodies travel as content, not cookies
            size = cookie_size_bytes(envelope)
            assert size < 4096, (envelope.msg_type, size)
            # base64 + attribute names cost < 2.5x the canonical bytes.
            assert size < 2.5 * envelope.size_bytes() + 200
