"""Known answers and builtin-``pow`` oracles for the one crypto engine.

The expected values below were recorded from the from-scratch reference
primitives (pure-Python SHA-256/HMAC, per-call CRT recomputation) that
the hashlib/CRT/ladder code paths replaced: the DRBG stream, RSA key
generation, signatures, RSAES envelopes, HKDF and a whole protocol
conversation must keep producing exactly those bytes.  The hypothesis
properties pin the bigint paths against Python's builtin ``pow``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    CertificateAuthority,
    HmacDrbg,
    generate_keypair,
    hkdf_sha256,
    sha256,
)
from repro.crypto.rsa import _emsa_pkcs1_v15, _ladder_pow

#: ``HmacDrbg(b"stream-seed", personalization=b"equiv")`` draws, in order;
#: the 500-byte draw is recorded as its SHA-256.
DRBG_DRAWS = [
    (1, "61"),
    (15, "b874684697c6183490bc7792794993"),
    (32, "e7d6afb101ba716659da5b85d5ade6fb77deb16635d4303a8d39183c9749d1f3"),
    (33, "7d223aa8d846b680016b68f8edfde34f7d823eada85ac67858a44b7175931046b6"),
    (64, "d6bb2843270bb4f2c3c1385381123e3e63b58f4546956932b083609bb7656228"
         "3a9f42cb3aee7b3833e374a4e0cedfaa5faf051773015b5a9874ff8e64b891b1"),
]
DRBG_DRAW_500_SHA256 = (
    "ea77ef5539079185c274f05c0703786eec9f7ad4de1d7973ee0cb0396e3dac05")
#: ``generate_keypair(HmacDrbg(b"kg"), bits=512)``.
KG_N = int(
    "c4c235b8dbf4fac4d7df40d6b61ad8044cbbf56266d125311852965a58060b6b"
    "1e9119e5e44facc11ea16f314171b480ef1f3de21998e536f3cdda028e9323c7", 16)
KG_D = int(
    "455d32133977e3f0012a73713e41b865cba7779a7924c237cc9b50e608a218e3"
    "cc5549d1c8ef38f3f9d4846908553b9f646943638593826d5acdb037a4dbae01", 16)

#: ``generate_keypair(HmacDrbg(b"equivalence-key"), bits=1024)``: its
#: modulus, its signature over ``b"attest this frame"``, and the RSAES
#: envelope of ``b"session-key-material"`` padded from
#: ``HmacDrbg(b"\x00pad")``.
KEY_1024_N = int(
    "d3990d0806af9f564c374cca8516e5b067a3515bfb490c4e98ff89846b30f461"
    "a259346e4dd085d705c044c6be3498da5801aa8d3f800ef34fe772543b5aae00"
    "b14e90599028e3754ef0d1fe3902b2c3eaf48d6256514025cb435931622bafd0"
    "a59a1c7f9a7c79455e082a6a2e8e6e8201b6a9a1c77e3148831649fb18d9683d", 16)
SIGNATURE = (
    "3cddda317d28afcddf494edee040cca9a65219ca42e0047fb2557cdfbdae665f"
    "c8fa945453adfbd82c039e8ce20161eef4dec086cb6c140886c0225ab9b20c17"
    "e358d3f99e529ace12beff2c9dd3244ca15f37444c6041a66d497313ad0d6824"
    "4f0e486c6606fa122b7c9a16c2be2d01f256ea4c9bca527edeb5bba5d36287f0")
CIPHERTEXT = (
    "8dcc62c3a8b883d85c2a431a9b7a8fec94ff56ec7e4bfea19759a7b4d262aba6"
    "02a5e6b3d4d10551ceda821e70ff86a8b3800717731ab6c37b9feb6d03981174"
    "1aaa5a67e18519596af36b4f25c2d51e6104017e69cfc214ea69e7f43515655b"
    "8ea34b761532daaec30e036dc60fe4590fbd9d9063e2c954eeaaac75df60f17b")

#: ``hkdf_sha256(b"K" * 16, 42, salt=b"salt", info=b"info")``.
HKDF_OKM = ("d1d4182677307deb276c24401633958a63fcaedbc6cdfca8f3a0c720305274ce"
            "fc5a837651e81cd19d2a")

#: :func:`_run_conversation`'s 12-envelope wire transcript, digested by
#: :func:`_transcript_digest`.
TRANSCRIPT_ENVELOPES = 12
TRANSCRIPT_SHA256 = (
    "4cfc32555fbb71ee438fb7230a0156aab894d3a45a9431f788bd933effee6aaa")


@pytest.fixture(scope="module")
def key_1024():
    return generate_keypair(HmacDrbg(b"equivalence-key"), bits=1024)


@pytest.fixture(scope="module")
def key_512():
    return generate_keypair(HmacDrbg(b"kg"), bits=512)


class TestDrbgKnownAnswers:
    def test_stream(self):
        stream = HmacDrbg(b"stream-seed", personalization=b"equiv")
        for size, expected in DRBG_DRAWS:
            assert stream.generate(size).hex() == expected, size
        assert sha256(stream.generate(500)).hex() == DRBG_DRAW_500_SHA256


class TestRsaKnownAnswers:
    def test_keygen(self, key_512):
        assert key_512.n == KG_N
        assert key_512.d == KG_D

    def test_signature(self, key_1024):
        assert key_1024.n == KEY_1024_N
        signature = key_1024.sign(b"attest this frame")
        assert signature.hex() == SIGNATURE
        assert key_1024.public_key.verify(b"attest this frame", signature)

    def test_rsaes_envelope(self, key_1024):
        ciphertext = key_1024.public_key.encrypt(b"session-key-material",
                                                 HmacDrbg(b"\x00pad"))
        assert ciphertext.hex() == CIPHERTEXT
        assert key_1024.decrypt(ciphertext) == b"session-key-material"


class TestMacKnownAnswers:
    def test_hkdf(self):
        assert hkdf_sha256(b"K" * 16, 42, salt=b"salt",
                           info=b"info").hex() == HKDF_OKM


def _run_conversation():
    """One register -> login -> requests conversation; returns its wire
    transcript as ``(direction, encoded bytes)`` pairs."""
    from repro.eval import LOGIN_BUTTON_XY
    from repro.fingerprint import enroll_master, synthesize_master
    from repro.net import MobileDevice, TrustClient, UntrustedChannel, WebServer
    from repro.net.message import encode_envelope

    ca = CertificateAuthority(rng=HmacDrbg(b"equiv-ca"), key_bits=1024)
    master = synthesize_master("equiv-thumb", np.random.default_rng(7))
    template = enroll_master(master, np.random.default_rng(8))
    device = MobileDevice("equiv-device", b"equiv-device-seed", ca=ca)
    device.flock.enroll_local_user(template)
    server = WebServer("www.equiv.example", ca, b"equiv-server")
    server.create_account("alice", "correct horse battery staple")
    channel = UntrustedChannel()
    client = TrustClient(device, server, channel)
    rng = np.random.default_rng(9)

    outcome = client.register("alice", LOGIN_BUTTON_XY, master, rng)
    assert outcome.success, outcome.reason
    login = client.login("alice", LOGIN_BUTTON_XY, master, rng)
    assert login.success, login.reason
    for index in range(3):
        result = client.request(login.session, risk=0.0, rng=rng,
                                touch_xy=LOGIN_BUTTON_XY, master=master,
                                time_s=float(index))
        assert result.success, result.reason
    device.flock.close_session(server.domain)
    return [(record.direction, encode_envelope(record.envelope))
            for record in channel.log]


def _transcript_digest(transcript) -> str:
    """SHA-256 over length-framed ``direction NUL len(wire) wire`` records."""
    framed = b"".join(direction.encode() + b"\x00"
                      + len(wire).to_bytes(4, "big") + wire
                      for direction, wire in transcript)
    return sha256(framed).hex()


class TestTranscriptKnownAnswer:
    def test_protocol_transcript_is_unchanged(self):
        transcript = _run_conversation()
        assert len(transcript) == TRANSCRIPT_ENVELOPES
        assert _transcript_digest(transcript) == TRANSCRIPT_SHA256


class TestBuiltinPowOracles:
    @given(st.integers(min_value=0, max_value=2**160),
           st.integers(min_value=1, max_value=2**128),
           st.integers(min_value=1, max_value=140), st.data())
    def test_ladder_pow_matches_pow(self, base, modulus, width, data):
        exponent = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        assert _ladder_pow(base, exponent, modulus, width) \
            == pow(base, exponent, modulus)

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=200))
    def test_signature_is_pow_of_the_encoding(self, key_512, message):
        encoded = int.from_bytes(_emsa_pkcs1_v15(message, key_512.byte_length),
                                 "big")
        assert int.from_bytes(key_512.sign(message), "big") \
            == pow(encoded, key_512.d, key_512.n)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_ladder_private_op_matches_pow(self, key_512, data):
        c = data.draw(st.integers(min_value=0, max_value=key_512.n - 1))
        width = key_512.byte_length * 4
        assert key_512._private_op(c, ladder_width=width) \
            == pow(c, key_512.d, key_512.n)
