"""Deterministic random bit generation: HMAC-DRBG (NIST SP 800-90A).

Every stochastic component of the simulation is seedable so experiments are
bit-for-bit reproducible.  The crypto processor inside FLock draws key
material from an HMAC-DRBG instance seeded per module, standing in for the
hardware TRNG the paper's ASIC would carry.  The state machine is written
out here; each HMAC-SHA256 step is the stdlib's ``hmac.digest``.
"""

from __future__ import annotations

import hmac

__all__ = ["HmacDrbg"]


class HmacDrbg:
    """HMAC-SHA256 deterministic random bit generator.

    Implements instantiate / generate from SP 800-90A, minus reseeding and
    the prediction-resistance machinery, which are irrelevant in
    simulation.  The output stream is a pure function of (seed,
    personalization, call sequence).
    """

    #: SP 800-90A limit on a single generate call (bytes).
    MAX_REQUEST = 1 << 16

    def __init__(self, seed: bytes, personalization: bytes = b"") -> None:
        if not isinstance(seed, (bytes, bytearray)) or len(seed) == 0:
            raise ValueError("seed must be non-empty bytes")
        self._key = b"\x00" * 32
        self._value = b"\x01" * 32
        self._update(bytes(seed) + personalization)

    def _update(self, provided: bytes = b"") -> None:
        digest = hmac.digest
        self._key = digest(self._key, self._value + b"\x00" + provided, "sha256")
        self._value = digest(self._key, self._value, "sha256")
        if provided:
            self._key = digest(self._key, self._value + b"\x01" + provided,
                               "sha256")
            self._value = digest(self._key, self._value, "sha256")

    def generate(self, n_bytes: int) -> bytes:
        """Return ``n_bytes`` of pseudo-random output."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        if n_bytes > self.MAX_REQUEST:
            raise ValueError(f"single request limited to {self.MAX_REQUEST} bytes")
        # Every requested block in one tight loop over the C HMAC, joined
        # once: this runs for each nonce, padding byte and prime candidate.
        digest = hmac.digest
        key = self._key
        value = self._value
        blocks = []
        for _ in range((n_bytes + 31) // 32):
            value = digest(key, value, "sha256")
            blocks.append(value)
        self._value = value
        self._update()
        return b"".join(blocks)[:n_bytes]
