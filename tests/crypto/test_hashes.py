"""SHA-256 and MD5 against published test vectors."""

import hashlib

import pytest

from repro.crypto import md5, sha256


class TestSha256Vectors:
    """FIPS 180-4 example messages."""

    def test_empty(self):
        assert sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_message(self):
        msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert sha256(msg).hex() == (
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )

    def test_million_a(self):
        assert sha256(b"a" * 1_000_000).hex() == (
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        )

    def test_exact_block_boundary(self):
        for size in (55, 56, 57, 63, 64, 65, 119, 120, 128):
            data = bytes(range(256))[:size] * 1
            assert sha256(data) == hashlib.sha256(data).digest()


class TestSha256Api:
    def test_rejects_str(self):
        with pytest.raises(TypeError):
            sha256("not bytes")  # type: ignore[arg-type]

    def test_accepts_bytearray_and_memoryview(self):
        assert sha256(bytearray(b"abc")) == sha256(b"abc")
        assert sha256(memoryview(b"abc")) == sha256(b"abc")


class TestMd5Vectors:
    """RFC 1321 appendix A.5 test suite."""

    VECTORS = {
        b"": "d41d8cd98f00b204e9800998ecf8427e",
        b"a": "0cc175b9c0f1b6a831c399e269772661",
        b"abc": "900150983cd24fb0d6963f7d28e17f72",
        b"message digest": "f96b697d7cb7938d525a2f31aaf161d0",
        b"abcdefghijklmnopqrstuvwxyz": "c3fcd3d76192e4007dfb496cca67e13b",
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789":
            "d174ab98d277d9f5a5611c2c9f419d9f",
        b"1234567890" * 8: "57edf4a22be3c955ac49da2e2107b67a",
    }

    @pytest.mark.parametrize("message,expected", sorted(VECTORS.items()))
    def test_rfc1321_vector(self, message, expected):
        assert md5(message).hex() == expected

    def test_rejects_str(self):
        with pytest.raises(TypeError):
            md5("oops")  # type: ignore[arg-type]
