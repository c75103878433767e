"""Digests, HMAC and HKDF: thin functions over :mod:`hashlib` and :mod:`hmac`.

The TRUST protocols (Figs. 9-10) authenticate every message with a MAC keyed
either by an asymmetric signature (registration) or by the per-login session
key (continuous authentication), and FLock's frame hash engine digests every
displayed frame with SHA-256 or MD5.  The stdlib computes all of these; this
module fixes the call shapes the rest of the tree uses (bytes in, digest
bytes out) and adds what the stdlib lacks: HKDF (RFC 5869), used to expand
session keys into separate encryption and MAC keys.  Every secret compare
routes through :func:`constant_time_equal`, a type-checked front for
:func:`hmac.compare_digest`.
"""

from __future__ import annotations

import hashlib
import hmac

__all__ = ["sha256", "md5", "hmac_sha256", "hkdf_sha256", "constant_time_equal"]


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def md5(data: bytes) -> bytes:
    """One-shot MD5 digest of ``data``.

    The paper's display repeater allows "MD5 or SHA256" for frame hashing;
    MD5 serves strictly as a non-adversarial integrity checksum there,
    hence ``usedforsecurity=False`` (which FIPS builds also accept).
    """
    return hashlib.md5(data, usedforsecurity=False).digest()


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """One-shot HMAC-SHA256 tag."""
    return hmac.digest(key, message, "sha256")


def hkdf_sha256(ikm: bytes, length: int, salt: bytes = b"", info: bytes = b"") -> bytes:
    """HKDF-Extract-then-Expand with SHA-256.

    Used to derive independent encryption / MAC subkeys from the session key
    negotiated during the Fig. 10 login step.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    if length > 255 * 32:
        raise ValueError("HKDF-SHA256 output limited to 8160 bytes")
    prk = hmac_sha256(salt if salt else b"\x00" * 32, ikm)
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = hmac_sha256(prk, block + info + bytes([counter]))
        okm += block
        counter += 1
    return okm[:length]


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe byte-string equality (:func:`hmac.compare_digest`)."""
    if not isinstance(a, (bytes, bytearray)) or not isinstance(b, (bytes, bytearray)):
        raise TypeError("constant_time_equal expects bytes")
    return hmac.compare_digest(a, b)
