"""FLock on-chip protected storage (Fig. 5: SRAM + Flash).

The flash holds one record per bound web service — exactly the record of
Fig. 9 step 2: domain, account, the per-service (public, private) key pair,
the fingerprint template, and the server's public key.  The record store
enforces the trusted boundary at the type level: ``export_public_view``
returns only the fields the host is ever allowed to see.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import RsaPrivateKey, RsaPublicKey
from repro.fingerprint import FingerprintTemplate

__all__ = ["ServiceRecord", "PublicServiceView", "ProtectedFlash", "SramModel", "StorageError"]


class StorageError(Exception):
    """Raised on storage misuse (missing/duplicate records, capacity)."""


@dataclass(frozen=True)
class PublicServiceView:
    """The only service-record fields that may cross the host interface."""

    domain: str
    account: str
    public_key: RsaPublicKey


@dataclass
class ServiceRecord:
    """One bound web service (paper Fig. 9, 'User - Domain Record')."""

    domain: str
    account: str
    key_pair: RsaPrivateKey
    fingerprint: FingerprintTemplate
    server_public_key: RsaPublicKey

    def public_view(self) -> PublicServiceView:
        """The host-safe projection of this record."""
        return PublicServiceView(
            domain=self.domain, account=self.account,
            public_key=self.key_pair.public_key,
        )


class ProtectedFlash:
    """Non-volatile record store inside the FLock trusted boundary."""

    def __init__(self, capacity_records: int = 64) -> None:
        if capacity_records < 1:
            raise ValueError("flash needs capacity for at least one record")
        self.capacity_records = int(capacity_records)
        self._records: dict[str, ServiceRecord] = {}
        self._device_template: FingerprintTemplate | None = None

    # -- device-local enrollment (used by local identity management) -------
    def store_device_template(self, template: FingerprintTemplate) -> None:
        """Persist the device-unlock fingerprint template."""
        self._device_template = template

    def device_template(self) -> FingerprintTemplate:
        """The device-unlock template; StorageError if none enrolled."""
        if self._device_template is None:
            raise StorageError("no device fingerprint template enrolled")
        return self._device_template

    @property
    def has_device_template(self) -> bool:
        """Whether a device-unlock template is stored."""
        return self._device_template is not None

    # -- per-service records ------------------------------------------------
    def add_record(self, record: ServiceRecord) -> None:
        """Store a new service record; rejects duplicates and overflow."""
        if record.domain in self._records:
            raise StorageError(f"record for {record.domain!r} already exists")
        if len(self._records) >= self.capacity_records:
            raise StorageError("flash capacity exhausted")
        self._records[record.domain] = record

    def record(self, domain: str) -> ServiceRecord:
        """Fetch the record for a domain; StorageError if absent."""
        try:
            return self._records[domain]
        except KeyError:
            raise StorageError(f"no record for domain {domain!r}") from None

    def has_record(self, domain: str) -> bool:
        """Whether a record exists for a domain."""
        return domain in self._records

    def remove_record(self, domain: str) -> None:
        """Delete the record for a domain; StorageError if absent."""
        if domain not in self._records:
            raise StorageError(f"no record for domain {domain!r}")
        del self._records[domain]

    def all_records(self) -> list[ServiceRecord]:
        """Internal-only iteration (identity transfer packs these)."""
        return [record for _, record in sorted(self._records.items())]


class SramModel:
    """Bounded working memory; captures oversized-frame handling."""

    def __init__(self, capacity_bytes: int = 1 << 20) -> None:
        if capacity_bytes < 1:
            raise ValueError("SRAM capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.used_bytes = 0
        self.peak_bytes = 0

    def allocate(self, n_bytes: int) -> None:
        """Reserve working memory; StorageError when exhausted."""
        if n_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self.used_bytes + n_bytes > self.capacity_bytes:
            raise StorageError(
                f"SRAM exhausted: {self.used_bytes} + {n_bytes} "
                f"> {self.capacity_bytes}")
        self.used_bytes += n_bytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)

    def release(self, n_bytes: int) -> None:
        """Return previously allocated working memory."""
        if n_bytes < 0 or n_bytes > self.used_bytes:
            raise ValueError("invalid release size")
        self.used_bytes -= n_bytes
