"""Cryptographic substrate for the TRUST protocols.

Everything the FLock crypto processor, web servers and CA need, as flat
primitives: SHA-256 and MD5 digests, HMAC/HKDF, an HMAC-DRBG, RSA key
generation / signatures / encryption, the ChaCha20 session cipher, and
CA-signed certificates.  Digests and HMAC are thin functions over
:mod:`hashlib`/:mod:`hmac`; what the stdlib lacks is written here — HKDF,
the DRBG state machine, Miller-Rabin prime generation, RSA with cached CRT
parameters and a branchless Montgomery-ladder decryption, ChaCha20 and
the certificate format; ``constant_time_equal`` is a bytes-only front for
:func:`hmac.compare_digest`.  Every primitive is
checked against published test vectors and recorded known answers in
``tests/crypto``.
"""

from .mac import sha256, md5, hmac_sha256, hkdf_sha256, constant_time_equal
from .rng import HmacDrbg
from .primes import is_probable_prime, generate_prime
from .rsa import (
    RsaPublicKey,
    RsaPrivateKey,
    generate_keypair,
    SignatureError,
    DecryptionError,
)
from .chacha20 import chacha20_block, chacha20_xor, SessionCipher, AuthenticationError
from .cert import Certificate, CertificateError, CertificateAuthority

__all__ = [
    "sha256", "md5", "hmac_sha256", "hkdf_sha256", "constant_time_equal",
    "HmacDrbg",
    "is_probable_prime", "generate_prime",
    "RsaPublicKey", "RsaPrivateKey", "generate_keypair",
    "SignatureError", "DecryptionError",
    "chacha20_block", "chacha20_xor", "SessionCipher", "AuthenticationError",
    "Certificate", "CertificateError", "CertificateAuthority",
]
