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

    Implements instantiate / reseed / generate from SP 800-90A, minus the
    prediction-resistance machinery which is irrelevant in simulation.  The
    output stream is a pure function of (seed, personalization, call
    sequence).
    """

    #: SP 800-90A limit on a single generate call (bytes).
    MAX_REQUEST = 1 << 16

    def __init__(self, seed: bytes, personalization: bytes = b"") -> None:
        if not isinstance(seed, (bytes, bytearray)) or len(seed) == 0:
            raise ValueError("seed must be non-empty bytes")
        self._key = b"\x00" * 32
        self._value = b"\x01" * 32
        self._reseed_counter = 1
        self._update(bytes(seed) + personalization)

    def _update(self, provided: bytes = b"") -> None:
        digest = hmac.digest
        self._key = digest(self._key, self._value + b"\x00" + provided, "sha256")
        self._value = digest(self._key, self._value, "sha256")
        if provided:
            self._key = digest(self._key, self._value + b"\x01" + provided,
                               "sha256")
            self._value = digest(self._key, self._value, "sha256")

    def reseed(self, entropy: bytes) -> None:
        """Mix fresh entropy into the generator state."""
        if not entropy:
            raise ValueError("entropy must be non-empty")
        self._update(entropy)
        self._reseed_counter = 1

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
        self._reseed_counter += 1
        return b"".join(blocks)[:n_bytes]

    def random_int(self, n_bits: int) -> int:
        """Uniform random integer in [0, 2**n_bits)."""
        if n_bits <= 0:
            raise ValueError("n_bits must be positive")
        n_bytes = (n_bits + 7) // 8
        value = int.from_bytes(self.generate(n_bytes), "big")
        return value >> (n_bytes * 8 - n_bits)

    def random_below(self, bound: int) -> int:
        """Uniform random integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        n_bits = bound.bit_length()
        while True:
            candidate = self.random_int(n_bits)
            if candidate < bound:
                return candidate

    def random_range(self, low: int, high: int) -> int:
        """Uniform random integer in [low, high)."""
        if high <= low:
            raise ValueError("empty range")
        return low + self.random_below(high - low)
