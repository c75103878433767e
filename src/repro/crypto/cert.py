"""Certificates and the Certificate Authority of the TRUST deployment.

Fig. 8 shows a CA server alongside the web servers and the mobile devices:
each web server and each FLock module holds a public-key certificate signed
by the CA, and the CA's public key is burned into every FLock module.  The
certificate format here is a deliberately small X.509 stand-in: a canonical
byte encoding of (serial, subject, role, public key, validity window) signed
with RSASSA-PKCS1-v1_5/SHA-256.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mac import sha256
from .rng import HmacDrbg
from .rsa import RsaPublicKey, generate_keypair

__all__ = ["Certificate", "CertificateError", "CertificateAuthority"]


class CertificateError(Exception):
    """Raised when a certificate fails validation."""


def _encode_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return len(raw).to_bytes(4, "big") + raw


@dataclass(frozen=True)
class Certificate:
    """A CA-signed binding of a subject name + role to a public key."""

    serial: int
    subject: str
    role: str  # "web-server", "flock-device", or "ca"
    public_key: RsaPublicKey
    not_before: int  # logical protocol time (monotonic ticks)
    not_after: int
    issuer: str
    signature: bytes

    def tbs_bytes(self) -> bytes:
        """The to-be-signed canonical encoding."""
        return (
            self.serial.to_bytes(8, "big")
            + _encode_str(self.subject)
            + _encode_str(self.role)
            + self.public_key.to_bytes()
            + self.not_before.to_bytes(8, "big")
            + self.not_after.to_bytes(8, "big")
            + _encode_str(self.issuer)
        )

    def to_bytes(self) -> bytes:
        """Wire serialization: TBS bytes + length-prefixed signature."""
        tbs = self.tbs_bytes()
        return (len(tbs).to_bytes(4, "big") + tbs
                + len(self.signature).to_bytes(4, "big") + self.signature)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Certificate":
        """Parse a certificate; raises CertificateError on any corruption.

        Wire data is attacker-controlled, so *every* parse failure —
        truncation, bad lengths, invalid UTF-8 — must surface as a
        CertificateError the protocol layer can reject, never as a stray
        IndexError/UnicodeDecodeError that crashes the endpoint.
        """
        try:
            return cls._from_bytes_unchecked(data)
        except CertificateError:
            raise
        except (ValueError, IndexError, TypeError) as exc:
            # The audited failure modes of the raw parser: ValueError
            # covers bad UTF-8 (UnicodeDecodeError) and the hardened
            # RsaPublicKey.from_bytes; IndexError/TypeError cover byte
            # indexing and non-bytes input.  Anything else is a real bug
            # and must surface, not be masked as a corrupt certificate.
            raise CertificateError(f"certificate encoding corrupt: {exc}") \
                from exc

    @classmethod
    def _from_bytes_unchecked(cls, data: bytes) -> "Certificate":
        """The raw parser; may raise arbitrary exceptions on bad input."""
        tbs_len = int.from_bytes(data[:4], "big")
        tbs = data[4:4 + tbs_len]
        offset = 4 + tbs_len
        sig_len = int.from_bytes(data[offset:offset + 4], "big")
        signature = data[offset + 4:offset + 4 + sig_len]

        serial = int.from_bytes(tbs[:8], "big")
        pos = 8
        strings = []
        # subject, role are length-prefixed strings; then key; then window;
        # then issuer.
        for _ in range(2):
            n = int.from_bytes(tbs[pos:pos + 4], "big")
            strings.append(tbs[pos + 4:pos + 4 + n].decode("utf-8"))
            pos += 4 + n
        key_n_len = int.from_bytes(tbs[pos:pos + 4], "big")
        key_e_len = int.from_bytes(tbs[pos + 4 + key_n_len:pos + 8 + key_n_len],
                                   "big")
        key_len = 8 + key_n_len + key_e_len
        public_key = RsaPublicKey.from_bytes(tbs[pos:pos + key_len])
        pos += key_len
        not_before = int.from_bytes(tbs[pos:pos + 8], "big")
        not_after = int.from_bytes(tbs[pos + 8:pos + 16], "big")
        pos += 16
        issuer_len = int.from_bytes(tbs[pos:pos + 4], "big")
        issuer = tbs[pos + 4:pos + 4 + issuer_len].decode("utf-8")
        cert = cls(serial=serial, subject=strings[0], role=strings[1],
                   public_key=public_key, not_before=not_before,
                   not_after=not_after, issuer=issuer, signature=signature)
        if cert.tbs_bytes() != tbs:
            raise CertificateError("certificate encoding corrupt")
        return cert

    def fingerprint(self) -> bytes:
        """SHA-256 digest of the wire form — the memoization key for
        signature-check caching (covers TBS bytes *and* signature)."""
        return sha256(self.to_bytes())

    def signature_valid(self, ca_public_key: RsaPublicKey) -> bool:
        """Whether the CA signature checks out — the *pure* part of
        :meth:`verify`.

        This predicate depends only on the certificate bytes and the CA
        key, never on the clock, so its result is safely memoizable by a
        verification cache keyed on :meth:`fingerprint`.  Validity-window
        and role checks stay in :meth:`verify` and must be recomputed on
        every use.
        """
        return ca_public_key.verify(self.tbs_bytes(), self.signature)

    def check_constraints(self, now: int,
                          expected_role: str | None = None) -> None:
        """Validity-window and role checks — the *time-dependent* part of
        :meth:`verify`, recomputed on every use even when the signature
        verdict comes from a cache."""
        if not (self.not_before <= now <= self.not_after):
            raise CertificateError(
                f"certificate for {self.subject!r} outside validity "
                f"[{self.not_before}, {self.not_after}] at time {now}"
            )
        if expected_role is not None and self.role != expected_role:
            raise CertificateError(
                f"certificate for {self.subject!r} has role {self.role!r}, "
                f"expected {expected_role!r}"
            )

    def verify(self, ca_public_key: RsaPublicKey, now: int,
               expected_role: str | None = None) -> None:
        """Validate signature, validity window and (optionally) the role.

        Raises :class:`CertificateError` on any failure — callers treat a
        bad certificate as a hard protocol abort, mirroring step 2 of the
        Fig. 9 binding process.
        """
        if not self.signature_valid(ca_public_key):
            raise CertificateError(f"bad CA signature on certificate for {self.subject!r}")
        self.check_constraints(now, expected_role)


class CertificateAuthority:
    """The CA server: issues certificates under its root key."""

    DEFAULT_LIFETIME = 10_000_000  # logical ticks

    def __init__(self, name: str = "trust-ca", rng: HmacDrbg | None = None,
                 key_bits: int = 1024) -> None:
        self.name = name
        self._rng = rng if rng is not None else HmacDrbg(b"trust-ca-default-seed")
        self._key = generate_keypair(self._rng, bits=key_bits)
        self._next_serial = 1

    @property
    def public_key(self) -> RsaPublicKey:
        """The CA root key pre-installed in every FLock module."""
        return self._key.public_key

    def issue(self, subject: str, role: str, public_key: RsaPublicKey,
              now: int = 0, lifetime: int | None = None) -> Certificate:
        """Sign a certificate binding ``subject``/``role`` to ``public_key``."""
        if role not in ("web-server", "flock-device", "ca"):
            raise ValueError(f"unknown certificate role {role!r}")
        lifetime = self.DEFAULT_LIFETIME if lifetime is None else lifetime
        serial = self._next_serial
        self._next_serial += 1
        unsigned = Certificate(
            serial=serial, subject=subject, role=role, public_key=public_key,
            not_before=now, not_after=now + lifetime, issuer=self.name,
            signature=b"",
        )
        signature = self._key.sign(unsigned.tbs_bytes())
        return Certificate(
            serial=serial, subject=subject, role=role, public_key=public_key,
            not_before=now, not_after=now + lifetime, issuer=self.name,
            signature=signature,
        )
