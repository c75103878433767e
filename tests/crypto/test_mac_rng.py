"""HMAC (RFC 4231), HKDF (RFC 5869), constant-time compare, and HMAC-DRBG."""

import pytest

from repro.crypto import (
    HmacDrbg,
    constant_time_equal,
    hkdf_sha256,
    hmac_sha256,
)


class TestHmacSha256:
    def test_rfc4231_case1(self):
        key = b"\x0b" * 20
        assert hmac_sha256(key, b"Hi There").hex() == (
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )

    def test_rfc4231_case2(self):
        assert hmac_sha256(b"Jefe", b"what do ya want for nothing?").hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )

    def test_rfc4231_case3(self):
        key = b"\xaa" * 20
        data = b"\xdd" * 50
        assert hmac_sha256(key, data).hex() == (
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        )

    def test_rfc4231_long_key(self):
        # Case 6: key longer than the block size gets hashed first.
        key = b"\xaa" * 131
        msg = b"Test Using Larger Than Block-Size Key - Hash Key First"
        assert hmac_sha256(key, msg).hex() == (
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        )

    def test_rejects_non_bytes_key(self):
        with pytest.raises(TypeError):
            hmac_sha256("key", b"message")  # type: ignore[arg-type]


class TestHkdf:
    def test_rfc5869_case1(self):
        ikm = b"\x0b" * 22
        salt = bytes(range(13))
        info = bytes(range(0xF0, 0xFA))
        okm = hkdf_sha256(ikm, 42, salt=salt, info=info)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_rfc5869_case3_no_salt_no_info(self):
        okm = hkdf_sha256(b"\x0b" * 22, 42)
        assert okm.hex() == (
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8"
        )

    def test_prefix_property(self):
        long = hkdf_sha256(b"ikm", 64, info=b"x")
        short = hkdf_sha256(b"ikm", 32, info=b"x")
        assert long[:32] == short

    def test_distinct_info_distinct_keys(self):
        assert hkdf_sha256(b"ikm", 32, info=b"enc") != hkdf_sha256(b"ikm", 32, info=b"mac")

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            hkdf_sha256(b"ikm", 0)
        with pytest.raises(ValueError):
            hkdf_sha256(b"ikm", 255 * 32 + 1)


class TestConstantTimeEqual:
    def test_equal(self):
        assert constant_time_equal(b"abc", b"abc")

    def test_unequal_same_length(self):
        assert not constant_time_equal(b"abc", b"abd")

    def test_unequal_length(self):
        assert not constant_time_equal(b"abc", b"abcd")

    def test_type_error(self):
        with pytest.raises(TypeError):
            constant_time_equal("abc", b"abc")  # type: ignore[arg-type]


class TestHmacDrbg:
    def test_deterministic(self):
        a = HmacDrbg(b"seed").generate(64)
        b = HmacDrbg(b"seed").generate(64)
        assert a == b

    def test_personalization_separates_streams(self):
        a = HmacDrbg(b"seed", personalization=b"device-1").generate(32)
        b = HmacDrbg(b"seed", personalization=b"device-2").generate(32)
        assert a != b

    def test_sequential_outputs_differ(self):
        drbg = HmacDrbg(b"seed")
        assert drbg.generate(32) != drbg.generate(32)

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"")

    def test_generate_zero_bytes(self):
        assert HmacDrbg(b"seed").generate(0) == b""

    def test_request_limit(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"seed").generate(HmacDrbg.MAX_REQUEST + 1)

    @pytest.mark.parametrize("n_bytes", [1, 31, 32, 33, 65,
                                         HmacDrbg.MAX_REQUEST])
    def test_draw_is_a_prefix_of_the_block_stream(self, n_bytes):
        """A draw truncates the HMAC block stream: exact length, and the
        same bytes a larger first draw starts with."""
        longest = HmacDrbg(b"seed").generate(HmacDrbg.MAX_REQUEST)
        draw = HmacDrbg(b"seed").generate(n_bytes)
        assert len(draw) == n_bytes
        assert draw == longest[:n_bytes]

    def test_byte_value_distribution_roughly_uniform(self):
        data = HmacDrbg(b"uniformity").generate(4096)
        counts = [0] * 256
        for byte in data:
            counts[byte] += 1
        # Expected 16 per bucket; chi-square sanity bound, generous.
        chi2 = sum((c - 16) ** 2 / 16 for c in counts)
        assert chi2 < 400


class TestHkdfLongVectors:
    def test_rfc5869_case2_long_inputs(self):
        ikm = bytes(range(0x00, 0x50))
        salt = bytes(range(0x60, 0xB0))
        info = bytes(range(0xB0, 0x100))
        okm = hkdf_sha256(ikm, 82, salt=salt, info=info)
        assert okm.hex() == (
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87"
        )
