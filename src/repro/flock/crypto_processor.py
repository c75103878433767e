"""FLock crypto processor: key generation, signing, sealing (Fig. 5).

Wraps the :mod:`repro.crypto` primitives with (i) the module's private DRBG
— the stand-in for the ASIC's TRNG — and (ii) modeled operation latencies,
so protocol benchmarks can report a hardware-credible cost breakdown.
Latencies are round numbers for a small embedded crypto core.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.crypto import (
    HmacDrbg,
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
    hmac_sha256,
)

__all__ = ["CryptoProcessor"]

#: Modeled latencies (seconds) of the embedded crypto core's operations.
KEYGEN_S = 0.150  # RSA-1024 keypair on a small core
SIGN_S = 0.008
VERIFY_S = 0.0006
RSA_ENCRYPT_S = 0.0006
RSA_DECRYPT_S = 0.008
MAC_PER_KB_S = 0.00001


@dataclass
class CryptoProcessor:
    """The crypto engine inside one FLock module."""

    rng: HmacDrbg
    key_bits: int = 1024
    time_spent_s: float = field(default=0.0, init=False)
    ops: "Counter[str]" = field(default_factory=Counter, init=False)
    #: Optional supplier of pre-generated key pairs.  Fleet-scale runs
    #: amortize the dominant RSA key-generation cost by installing a pool
    #: here after the module is built; the *modeled* keygen latency is
    #: still accounted, so reported timings are unchanged — only host
    #: wall-clock shrinks.
    keypair_source: "Callable[[], RsaPrivateKey] | None" = field(
        default=None, init=False)

    def _account(self, op: str, seconds: float) -> None:
        self.time_spent_s += seconds
        self.ops[op] += 1

    def generate_service_keypair(self) -> RsaPrivateKey:
        """Fresh per-service key pair (Fig. 9 step 2)."""
        self._account("keygen", KEYGEN_S)
        if self.keypair_source is not None:
            return self.keypair_source()
        return generate_keypair(self.rng, bits=self.key_bits)

    def sign(self, key: RsaPrivateKey, message: bytes) -> bytes:
        """RSASSA signature with latency accounting."""
        self._account("sign", SIGN_S)
        return key.sign(message)

    def verify(self, key: RsaPublicKey, message: bytes, signature: bytes) -> bool:
        """Signature verification with latency accounting."""
        self._account("verify", VERIFY_S)
        return key.verify(message, signature)

    def rsa_encrypt(self, key: RsaPublicKey, plaintext: bytes) -> bytes:
        """RSAES encryption with latency accounting."""
        self._account("rsa_encrypt", RSA_ENCRYPT_S)
        return key.encrypt(plaintext, self.rng)

    def rsa_decrypt(self, key: RsaPrivateKey, ciphertext: bytes) -> bytes:
        """RSAES decryption with latency accounting."""
        self._account("rsa_decrypt", RSA_DECRYPT_S)
        return key.decrypt(ciphertext)

    def mac(self, key: bytes, data: bytes) -> bytes:
        """HMAC-SHA256 with size-proportional latency accounting."""
        self._account("mac", MAC_PER_KB_S * (len(data) / 1024 + 1))
        return hmac_sha256(key, data)

    def random_bytes(self, n: int) -> bytes:
        """Fresh bytes from the module's DRBG (TRNG stand-in)."""
        return self.rng.generate(n)

    def new_session_key(self) -> bytes:
        """32-byte session key for the Fig. 10 login step."""
        return self.random_bytes(32)
