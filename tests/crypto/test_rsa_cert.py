"""RSA keygen/sign/encrypt, ChaCha20 vectors, SessionCipher, certificates."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    AuthenticationError,
    Certificate,
    CertificateAuthority,
    CertificateError,
    DecryptionError,
    HmacDrbg,
    RsaPublicKey,
    SessionCipher,
    chacha20_block,
    chacha20_xor,
    generate_keypair,
    generate_prime,
    is_probable_prime,
)


#: The key an attacker would put in a stolen certificate.
ATTACKER_KEY = generate_keypair(HmacDrbg(b"attacker"), bits=1024).public_key


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(HmacDrbg(b"rsa-test-seed"), bits=1024)


@pytest.fixture(scope="module")
def rng():
    return HmacDrbg(b"ops-seed")


class TestPrimes:
    def test_small_primes(self):
        rng = HmacDrbg(b"p")
        for p in (2, 3, 5, 7, 11, 101, 7919):
            assert is_probable_prime(p, rng)

    def test_small_composites(self):
        rng = HmacDrbg(b"p")
        for n in (0, 1, 4, 9, 15, 561, 7917):  # 561 is a Carmichael number
            assert not is_probable_prime(n, rng)

    def test_generated_prime_has_exact_bits(self):
        rng = HmacDrbg(b"p")
        for bits in (64, 128, 256):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert p % 2 == 1

    def test_tiny_request_rejected(self):
        with pytest.raises(ValueError):
            generate_prime(8, HmacDrbg(b"p"))


class TestRsa:
    def test_modulus_size(self, keypair):
        assert keypair.n.bit_length() == 1024
        assert keypair.p != keypair.q
        assert keypair.p * keypair.q == keypair.n

    def test_sign_verify_roundtrip(self, keypair):
        sig = keypair.sign(b"attest this frame")
        assert keypair.public_key.verify(b"attest this frame", sig)

    def test_verify_rejects_wrong_message(self, keypair):
        sig = keypair.sign(b"message A")
        assert not keypair.public_key.verify(b"message B", sig)

    def test_verify_rejects_bitflip(self, keypair):
        sig = bytearray(keypair.sign(b"msg"))
        sig[10] ^= 0x01
        assert not keypair.public_key.verify(b"msg", bytes(sig))

    def test_verify_rejects_wrong_length(self, keypair):
        assert not keypair.public_key.verify(b"msg", b"\x00" * 10)

    def test_verify_rejects_other_key(self, keypair):
        other = generate_keypair(HmacDrbg(b"other-seed"), bits=1024)
        sig = keypair.sign(b"msg")
        assert not other.public_key.verify(b"msg", sig)

    def test_encrypt_decrypt_roundtrip(self, keypair, rng):
        ct = keypair.public_key.encrypt(b"session-key-material", rng)
        assert keypair.decrypt(ct) == b"session-key-material"

    def test_encrypt_is_randomized(self, keypair, rng):
        a = keypair.public_key.encrypt(b"same plaintext", rng)
        b = keypair.public_key.encrypt(b"same plaintext", rng)
        assert a != b

    def test_decrypt_rejects_tampering(self, keypair, rng):
        ct = bytearray(keypair.public_key.encrypt(b"secret", rng))
        ct[0] ^= 0xFF
        with pytest.raises(DecryptionError):
            keypair.decrypt(bytes(ct))

    def test_plaintext_size_limit(self, keypair, rng):
        limit = keypair.byte_length - 11
        keypair.public_key.encrypt(b"x" * limit, rng)  # exactly at limit: fine
        with pytest.raises(ValueError):
            keypair.public_key.encrypt(b"x" * (limit + 1), rng)

    def test_public_key_serialization_roundtrip(self, keypair):
        pk = keypair.public_key
        assert RsaPublicKey.from_bytes(pk.to_bytes()) == pk

    def test_keygen_deterministic_from_seed(self):
        a = generate_keypair(HmacDrbg(b"same"), bits=1024)
        b = generate_keypair(HmacDrbg(b"same"), bits=1024)
        assert a == b

    def test_odd_bits_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(HmacDrbg(b"x"), bits=1023)

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=0, max_size=100))
    def test_sign_verify_property(self, message):
        key = generate_keypair(HmacDrbg(b"prop-seed"), bits=1024)
        assert key.public_key.verify(message, key.sign(message))


class TestChaCha20:
    def test_rfc8439_block_vector(self):
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        block = chacha20_block(key, 1, nonce)
        assert block[:16].hex() == "10f1e7e4d13b5915500fdd1fa32071c4"

    def test_rfc8439_encryption_vector(self):
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        ct = chacha20_xor(key, nonce, plaintext, initial_counter=1)
        assert ct[:16].hex() == "6e2e359a2568f98041ba0728dd0d6981"
        assert chacha20_xor(key, nonce, ct, initial_counter=1) == plaintext

    def test_bad_key_size(self):
        with pytest.raises(ValueError):
            chacha20_block(b"short", 0, b"\x00" * 12)

    def test_bad_nonce_size(self):
        with pytest.raises(ValueError):
            chacha20_block(b"\x00" * 32, 0, b"\x00" * 8)

    @given(st.binary(max_size=300))
    def test_xor_is_involution(self, data):
        key, nonce = b"\x11" * 32, b"\x22" * 12
        assert chacha20_xor(key, nonce, chacha20_xor(key, nonce, data)) == data


class TestSessionCipher:
    def test_roundtrip(self):
        tx, rx = SessionCipher(b"k" * 32), SessionCipher(b"k" * 32)
        blob = tx.encrypt(b"page request", associated_data=b"hdr")
        assert rx.decrypt(blob, associated_data=b"hdr") == b"page request"

    def test_tamper_detected(self):
        tx, rx = SessionCipher(b"k" * 32), SessionCipher(b"k" * 32)
        blob = bytearray(tx.encrypt(b"payload"))
        blob[SessionCipher.NONCE_SIZE] ^= 0x01
        with pytest.raises(AuthenticationError):
            rx.decrypt(bytes(blob))

    def test_wrong_associated_data_detected(self):
        tx, rx = SessionCipher(b"k" * 32), SessionCipher(b"k" * 32)
        blob = tx.encrypt(b"payload", associated_data=b"session-1")
        with pytest.raises(AuthenticationError):
            rx.decrypt(blob, associated_data=b"session-2")

    def test_wrong_key_detected(self):
        blob = SessionCipher(b"k" * 32).encrypt(b"payload")
        with pytest.raises(AuthenticationError):
            SessionCipher(b"j" * 32).decrypt(blob)

    def test_nonce_advances(self):
        tx = SessionCipher(b"k" * 32)
        a = tx.encrypt(b"same")
        b = tx.encrypt(b"same")
        assert a[:SessionCipher.NONCE_SIZE] != b[:SessionCipher.NONCE_SIZE]
        assert a != b

    def test_short_blob_rejected(self):
        with pytest.raises(AuthenticationError):
            SessionCipher(b"k" * 32).decrypt(b"tiny")

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            SessionCipher(b"short")

    @given(st.binary(max_size=500), st.binary(max_size=50))
    def test_roundtrip_property(self, payload, aad):
        tx, rx = SessionCipher(b"s" * 32), SessionCipher(b"s" * 32)
        assert rx.decrypt(tx.encrypt(payload, aad), aad) == payload


class TestCertificates:
    @pytest.fixture(scope="class")
    def ca(self):
        return CertificateAuthority(rng=HmacDrbg(b"ca-test"), key_bits=1024)

    @pytest.fixture(scope="class")
    def server_key(self):
        return generate_keypair(HmacDrbg(b"server-test"), bits=1024)

    def test_issue_and_verify(self, ca, server_key):
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key, now=100)
        cert.verify(ca.public_key, now=200, expected_role="web-server")

    def test_wrong_role_rejected(self, ca, server_key):
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key)
        with pytest.raises(CertificateError, match="role"):
            cert.verify(ca.public_key, now=0, expected_role="flock-device")

    def test_expired_rejected(self, ca, server_key):
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key,
                        now=0, lifetime=10)
        with pytest.raises(CertificateError, match="validity"):
            cert.verify(ca.public_key, now=11)

    def test_not_yet_valid_rejected(self, ca, server_key):
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key, now=100)
        with pytest.raises(CertificateError):
            cert.verify(ca.public_key, now=50)

    def test_wrong_ca_rejected(self, ca, server_key):
        rogue = CertificateAuthority(rng=HmacDrbg(b"rogue"), key_bits=1024)
        cert = rogue.issue("www.xyz.com", "web-server", server_key.public_key)
        with pytest.raises(CertificateError, match="signature"):
            cert.verify(ca.public_key, now=0)

    def test_serials_increase(self, ca, server_key):
        a = ca.issue("a", "web-server", server_key.public_key)
        b = ca.issue("b", "web-server", server_key.public_key)
        assert b.serial > a.serial

    def test_unknown_role_rejected(self, ca, server_key):
        with pytest.raises(ValueError):
            ca.issue("x", "toaster", server_key.public_key)

    def test_fingerprint_stable_and_distinct(self, ca, server_key):
        """The digest the verification cache keys on: equal for the same
        wire bytes, different for any other certificate."""
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key)
        reparsed = Certificate.from_bytes(cert.to_bytes())
        assert reparsed.fingerprint() == cert.fingerprint()
        other = ca.issue("www.xyz.com", "web-server", server_key.public_key)
        assert other.fingerprint() != cert.fingerprint()

    def test_wire_roundtrip_still_verifies(self, ca, server_key):
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key,
                        now=5, lifetime=50)
        reparsed = Certificate.from_bytes(cert.to_bytes())
        assert reparsed == cert
        reparsed.verify(ca.public_key, now=30, expected_role="web-server")

    @pytest.mark.parametrize("field, forged", [
        ("serial", 2**40),
        ("subject", "www.evil.com"),
        ("role", "ca"),
        pytest.param("public_key", ATTACKER_KEY, id="public_key-attacker"),
        ("not_before", 0),
        ("not_after", 10**9),
        ("issuer", "rogue-ca"),
    ])
    def test_every_signed_field_is_covered(self, ca, server_key, field,
                                           forged):
        """Changing any to-be-signed field breaks the CA signature, so a
        holder can neither claim another name, substitute its key,
        escalate its role nor stretch its validity."""
        cert = ca.issue("www.xyz.com", "web-server", server_key.public_key,
                        now=10, lifetime=100)
        tampered = dataclasses.replace(cert, **{field: forged})
        assert tampered.tbs_bytes() != cert.tbs_bytes()
        with pytest.raises(CertificateError, match="signature"):
            tampered.verify(ca.public_key, now=50)


class TestCertificateParserRobustness:
    """Regression: wire corruption must raise CertificateError, never leak
    IndexError/UnicodeDecodeError out of the parser (found by the protocol
    fuzzer)."""

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=300))
    def test_random_bytes_never_crash(self, data):
        try:
            Certificate.from_bytes(data)
        except CertificateError:
            pass  # the only acceptable failure mode

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=200),
           st.integers(min_value=0, max_value=255))
    def test_bitflipped_real_certificate_never_crashes(self, position, mask):
        ca = CertificateAuthority(rng=HmacDrbg(b"robust-ca"), key_bits=1024)
        key = generate_keypair(HmacDrbg(b"robust-key"), bits=1024)
        blob = bytearray(ca.issue("host", "web-server", key.public_key)
                         .to_bytes())
        blob[position % len(blob)] ^= (mask or 1)
        try:
            cert = Certificate.from_bytes(bytes(blob))
            # If it parsed, verification must still reject forgery...
            cert.verify(ca.public_key, now=0)
        except CertificateError:
            pass
