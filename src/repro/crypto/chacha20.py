"""ChaCha20 stream cipher (RFC 8439) for session-key encryption.

The Fig. 10 continuous-authentication protocol encrypts all post-login
traffic under a session key.  ChaCha20 is implemented here (rather than AES)
because it is compact and fast in pure Python, and it pairs with HMAC-SHA256
in an encrypt-then-MAC construction (`SessionCipher`).  The block function
is from scratch (the stdlib has no stream cipher); keystream blocks are
computed afresh for every call, so no session keystream outlives the
message it encrypts.
"""

from __future__ import annotations

import struct

from .mac import constant_time_equal, hkdf_sha256, hmac_sha256

__all__ = ["chacha20_block", "chacha20_xor", "SessionCipher", "AuthenticationError"]


class AuthenticationError(Exception):
    """Raised when an authenticated ciphertext fails its MAC check."""


_MASK = 0xFFFFFFFF


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK
    state[d] ^= state[a]
    state[d] = ((state[d] << 16) | (state[d] >> 16)) & _MASK
    state[c] = (state[c] + state[d]) & _MASK
    state[b] ^= state[c]
    state[b] = ((state[b] << 12) | (state[b] >> 20)) & _MASK
    state[a] = (state[a] + state[b]) & _MASK
    state[d] ^= state[a]
    state[d] = ((state[d] << 8) | (state[d] >> 24)) & _MASK
    state[c] = (state[c] + state[d]) & _MASK
    state[b] ^= state[c]
    state[b] = ((state[b] << 7) | (state[b] >> 25)) & _MASK


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte ChaCha20 keystream block."""
    if len(key) != 32:
        raise ValueError("key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("nonce must be 12 bytes")
    constants = struct.unpack("<4I", b"expand 32-byte k")
    state = list(constants) + list(struct.unpack("<8I", key)) \
        + [counter & _MASK] + list(struct.unpack("<3I", nonce))
    working = list(state)
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    return struct.pack("<16I", *((w + s) & _MASK for w, s in zip(working, state)))


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, initial_counter: int = 1) -> bytes:
    """Encrypt/decrypt ``data`` (XOR with the keystream)."""
    # join/from_bytes degrade gracefully to b"" for empty input, so there
    # is no data-dependent early exit.
    keystream = b"".join(
        chacha20_block(key, initial_counter + block_index, nonce)
        for block_index in range((len(data) + 63) // 64))[:len(data)]
    # One fused bigint XOR instead of a Python loop per byte.
    return (int.from_bytes(data, "little")
            ^ int.from_bytes(keystream, "little")).to_bytes(len(data), "little")


class SessionCipher:
    """Encrypt-then-MAC channel cipher bound to one session key.

    Derives independent ChaCha20 and HMAC keys from the session key via HKDF,
    and carries an explicit 12-byte nonce per message.  Decryption rejects
    any ciphertext whose MAC does not verify, which is what defeats the
    in-flight tampering attacks of experiment E10.
    """

    TAG_SIZE = 32
    NONCE_SIZE = 12

    def __init__(self, session_key: bytes) -> None:
        if len(session_key) < 16:
            raise ValueError("session key must be at least 16 bytes")
        material = hkdf_sha256(session_key, 64, info=b"trust-session-cipher")
        self._enc_key = material[:32]
        self._mac_key = material[32:]
        self._send_counter = 0

    def encrypt(self, plaintext: bytes, associated_data: bytes = b"") -> bytes:
        """Return nonce || ciphertext || tag."""
        nonce = self._send_counter.to_bytes(self.NONCE_SIZE, "big")
        self._send_counter += 1
        ciphertext = chacha20_xor(self._enc_key, nonce, plaintext)
        tag = hmac_sha256(self._mac_key, nonce + associated_data + ciphertext)
        return nonce + ciphertext + tag

    def decrypt(self, blob: bytes, associated_data: bytes = b"") -> bytes:
        """Verify and decrypt a blob produced by :meth:`encrypt`."""
        if len(blob) < self.NONCE_SIZE + self.TAG_SIZE:
            raise AuthenticationError("ciphertext too short")
        nonce = blob[:self.NONCE_SIZE]
        tag = blob[-self.TAG_SIZE:]
        ciphertext = blob[self.NONCE_SIZE:-self.TAG_SIZE]
        expected = hmac_sha256(self._mac_key, nonce + associated_data + ciphertext)
        if not constant_time_equal(tag, expected):
            raise AuthenticationError("MAC verification failed")
        return chacha20_xor(self._enc_key, nonce, ciphertext)
