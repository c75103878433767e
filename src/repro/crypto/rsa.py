"""RSA key generation, signatures and encryption (PKCS#1-style).

FLock's crypto processor holds one built-in device key pair and generates a
fresh key pair per web-service account (Fig. 9).  Web servers and the CA each
hold their own pair.  We implement:

- key generation with two Miller-Rabin primes and e = 65537,
- RSASSA signatures: EMSA-PKCS1-v1_5 padding over a SHA-256 digest,
- RSAES encryption: PKCS#1 v1.5 type-2 random padding (randomness drawn from
  the caller's DRBG so runs are reproducible),
- private-key operations over CRT parameters derived once per key: signing
  uses the builtin ``pow`` on each half, decryption a branchless Montgomery
  ladder, because its input is attacker-chosen.

Key sizes default to 1024 bits — small by modern standards, but this repo's
adversaries attack the *protocol*, not the number theory, and small keys keep
the end-to-end benchmarks fast.  2048-bit keys work and are exercised in the
tests' slow markers.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field

from .mac import constant_time_equal, sha256
from .primes import generate_prime
from .rng import HmacDrbg

__all__ = ["RsaPublicKey", "RsaPrivateKey", "generate_keypair", "SignatureError", "DecryptionError"]

# DER prefix for a SHA-256 DigestInfo (RFC 8017 section 9.2 note 1).
_SHA256_DIGEST_INFO = bytes.fromhex("3031300d060960864801650304020105000420")


class SignatureError(Exception):
    """Raised when a signature fails verification."""


class DecryptionError(Exception):
    """Raised when an RSA ciphertext cannot be decrypted/unpadded."""


# RsaPrivateKey.__post_init__/_private_op and _ladder_pow form the audited
# modpow boundary ([tool.trust-lint.sc] modpow-boundary): CPython bigint
# arithmetic is inherently value-dependent, so constant-time discipline
# stops here by declared policy and every suppression carries its reason.
def _ladder_pow(base: int, exponent: int, modulus: int, width: int) -> int:
    """Fixed-width branchless Montgomery ladder: ``base**exponent % modulus``.

    Every iteration performs the same two modular multiplications and the
    same pair of arithmetic-masked swaps, so the Python-level trace is
    independent of the exponent bits: ``width`` (a public bound,
    ``exponent < 2**width``) alone fixes the trip count.
    """
    r0 = 1
    r1 = base % modulus  # trust-lint: disable=SC803 -- base reduction inside the audited modpow boundary
    for i in range(width - 1, -1, -1):
        bit = (exponent >> i) & 1
        # Masked swap in, multiply + square, masked swap out: bit == 1
        # computes (r0*r1, r1*r1), bit == 0 computes (r0*r0, r0*r1).
        # No data-dependent branch, swap or subscript.
        diff = (r0 ^ r1) * bit
        r0 ^= diff
        r1 ^= diff
        r1 = (r0 * r1) % modulus  # trust-lint: disable=SC803 -- modular product inside the audited modpow boundary
        r0 = (r0 * r0) % modulus  # trust-lint: disable=SC803 -- modular square inside the audited modpow boundary
        diff = (r0 ^ r1) * bit
        r0 ^= diff
        r1 ^= diff
    return r0 % modulus  # trust-lint: disable=SC803 -- final reduction inside the audited modpow boundary


def _i2osp(x: int, length: int) -> bytes:
    return x.to_bytes(length, "big")


def _os2ip(data: bytes) -> int:
    return int.from_bytes(data, "big")


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key (n, e); the part FLock discloses to web servers."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        """Modulus size in bytes."""
        return (self.n.bit_length() + 7) // 8

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify an EMSA-PKCS1-v1_5 SHA-256 signature. Returns bool."""
        if len(signature) != self.byte_length:
            return False
        s = _os2ip(signature)
        if s >= self.n:
            return False
        em = _i2osp(pow(s, self.e, self.n), self.byte_length)
        expected = _emsa_pkcs1_v15(message, self.byte_length)
        return hmac.compare_digest(em, expected)

    def encrypt(self, plaintext: bytes, rng: HmacDrbg) -> bytes:
        """RSAES-PKCS1-v1_5 encryption with non-zero random padding."""
        k = self.byte_length
        if len(plaintext) > k - 11:
            raise ValueError(f"plaintext too long for {k * 8}-bit modulus")
        padding = bytearray()
        while len(padding) < k - len(plaintext) - 3:
            byte = rng.generate(1)
            if byte != b"\x00":
                padding += byte
        em = b"\x00\x02" + bytes(padding) + b"\x00" + plaintext
        return _i2osp(pow(_os2ip(em), self.e, self.n), k)

    def to_bytes(self) -> bytes:
        """Length-prefixed wire serialization of (n, e)."""
        n_bytes = _i2osp(self.n, self.byte_length)
        e_bytes = _i2osp(self.e, (self.e.bit_length() + 7) // 8)
        return (
            len(n_bytes).to_bytes(4, "big") + n_bytes
            + len(e_bytes).to_bytes(4, "big") + e_bytes
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RsaPublicKey":
        """Parse a public key from its wire serialization.

        Wire input is attacker-controlled; every malformation — wrong type,
        truncation, zero components — raises :class:`ValueError` so callers
        can catch one narrow exception type instead of ``Exception``.
        """
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise ValueError("public key encoding must be bytes")
        data = bytes(data)
        if len(data) < 4:
            raise ValueError("truncated public key encoding")
        n_len = int.from_bytes(data[:4], "big")
        offset = 4 + n_len
        if len(data) < offset + 4:
            raise ValueError("truncated public key modulus")
        n = _os2ip(data[4:offset])
        e_len = int.from_bytes(data[offset:offset + 4], "big")
        if len(data) < offset + 4 + e_len:
            raise ValueError("truncated public key exponent")
        e = _os2ip(data[offset + 4:offset + 4 + e_len])
        if n <= 0 or e <= 0:
            raise ValueError("degenerate public key component")
        return cls(n=n, e=e)


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key with CRT parameters for fast exponentiation."""

    n: int
    e: int
    d: int
    p: int
    q: int
    #: ``(d mod (p-1), d mod (q-1), q^-1 mod p)``, derived once per key;
    #: it takes no part in equality, hashing or ``repr``.
    _crt: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_crt", (
            self.d % (self.p - 1),  # trust-lint: disable=SC803 -- CRT exponent reduction inside the audited modpow boundary
            self.d % (self.q - 1),  # trust-lint: disable=SC803 -- CRT exponent reduction inside the audited modpow boundary
            pow(self.q, -1, self.p)))  # trust-lint: disable=SC803 -- CRT coefficient inversion inside the audited modpow boundary

    @property
    def byte_length(self) -> int:
        """Modulus size in bytes."""
        return (self.n.bit_length() + 7) // 8

    @property
    def public_key(self) -> RsaPublicKey:
        """The public half of this key pair."""
        return RsaPublicKey(n=self.n, e=self.e)

    def _private_op(self, c: int, ladder_width: int = 0) -> int:
        # CRT: roughly 4x faster than a straight pow(c, d, n).  This is
        # the audited modpow boundary: CPython's pow/% cost varies with
        # operand values, below anything even the ladder can hide.  A
        # nonzero ``ladder_width`` (public) runs both halves on the
        # branchless ladder instead of the builtin pow.
        dp, dq, q_inv = self._crt
        if ladder_width:
            m1 = _ladder_pow(c % self.p, dp, self.p, ladder_width)  # trust-lint: disable=SC803 -- CRT half reduction inside the audited modpow boundary
            m2 = _ladder_pow(c % self.q, dq, self.q, ladder_width)  # trust-lint: disable=SC803 -- CRT half reduction inside the audited modpow boundary
        else:
            m1 = pow(c % self.p, dp, self.p)  # trust-lint: disable=SC803 -- modular exponentiation inside the audited modpow boundary
            m2 = pow(c % self.q, dq, self.q)  # trust-lint: disable=SC803 -- modular exponentiation inside the audited modpow boundary
        h = (q_inv * (m1 - m2)) % self.p  # trust-lint: disable=SC803 -- CRT recombination inside the audited modpow boundary
        return m2 + h * self.q

    def sign(self, message: bytes) -> bytes:
        """Produce an EMSA-PKCS1-v1_5 SHA-256 signature over ``message``."""
        em = _emsa_pkcs1_v15(message, self.byte_length)
        return _i2osp(self._private_op(_os2ip(em)), self.byte_length)

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Invert RSAES-PKCS1-v1_5; raises DecryptionError on bad padding.

        The unpadding is constant-time in the decrypted block: one full
        scan with arithmetic flag accumulation, a single verdict compare
        through :func:`constant_time_equal`, and one combined error for
        every padding defect, so a Bleichenbacher-style oracle cannot
        distinguish *why* a ciphertext was rejected — or how far the
        check got — from the response timing.  The exponentiations run on
        the Montgomery ladder, whose trip count is the half-modulus bit
        width: the ciphertext is attacker-chosen, so a uniform trace is
        worth the extra work per bit that signing does not pay.
        """
        k = self.byte_length
        if len(ciphertext) != k:
            raise DecryptionError("ciphertext length mismatch")
        c = _os2ip(ciphertext)
        if c >= self.n:
            raise DecryptionError("ciphertext out of range")
        # Half the modulus bits bound both CRT exponents.
        em = _i2osp(self._private_op(c, ladder_width=k * 4), k)
        return _unpad_pkcs1_v15(em, k)


def _unpad_pkcs1_v15(em: bytes, k: int) -> bytes:
    """Constant-time RSAES-PKCS1-v1_5 unpadding of a decrypted block.

    Raises DecryptionError with one combined error for every padding
    defect.
    """
    header_ok = constant_time_equal(em[:2], b"\x00\x02")
    # Branch-free scan: is_zero is 1 exactly when the byte is zero,
    # separator accumulates the index of the *first* zero at or
    # after offset 2, seen_zero latches whether one exists at all.
    separator = 0
    seen_zero = 0
    for i in range(2, k):
        byte = em[i]
        is_zero = 1 - (((byte | -byte) >> 8) & 1)
        first_zero = is_zero & (1 - seen_zero)
        separator |= i * first_zero
        seen_zero |= is_zero
    # At least 8 bytes of non-zero padding: separator >= 10.  The
    # sign bit of (separator - 10) is extracted arithmetically so no
    # comparison result ever steers control flow.
    long_enough = 1 - (((separator - 10) >> 16) & 1)
    verdict = int(header_ok) & seen_zero & long_enough
    if not constant_time_equal(bytes([verdict]), b"\x01"):
        raise DecryptionError("bad PKCS#1 v1.5 padding")
    return em[separator + 1:]


def _emsa_pkcs1_v15(message: bytes, em_len: int) -> bytes:
    t = _SHA256_DIGEST_INFO + sha256(message)
    if em_len < len(t) + 11:
        raise ValueError("modulus too small for SHA-256 signature")
    return b"\x00\x01" + b"\xff" * (em_len - len(t) - 3) + b"\x00" + t


#: The public exponent of every generated key, F4.
PUBLIC_EXPONENT = 65537


def generate_keypair(rng: HmacDrbg, bits: int = 1024) -> RsaPrivateKey:
    """Generate an RSA key pair with modulus of exactly ``bits`` bits."""
    if bits < 512:
        raise ValueError("modulus below 512 bits cannot carry a SHA-256 signature")
    if bits % 2 != 0:
        raise ValueError("bits must be even")
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(half, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % PUBLIC_EXPONENT == 0:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        d = pow(PUBLIC_EXPONENT, -1, phi)
        return RsaPrivateKey(n=n, e=PUBLIC_EXPONENT, d=d, p=p, q=q)
