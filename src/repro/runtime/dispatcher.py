"""Per-account sharding: consistent-hash router + web-server replica pool.

A TRUST service at fleet scale is one *logical* domain served by N
``WebServer`` replicas.  They share one service key pair — exactly like a
replicated HTTPS deployment sharing one TLS key — minted once by the
first replica from the pool's key seed, and each holds its own CA
certificate for it; a device's stored per-domain binding verifies
against any of them.  What is *sharded* is the
account database: each account lives on exactly one replica, chosen by a
consistent-hash ring over account names (a ring would let a membership
change move only ~K/N accounts; the fleet's membership is fixed).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Iterable

from repro.crypto import CertificateAuthority, sha256
from repro.net import WebServer

__all__ = ["ConsistentHashRouter", "ServerPool"]


class ConsistentHashRouter:
    """SHA-256 hash ring mapping account names to shard ids.

    Each shard contributes ``replicas`` virtual points to the ring; an
    account routes to the first point clockwise of its own hash.  The ring
    is a plain sorted list and lookups are ``bisect``.
    """

    def __init__(self, shard_ids: Iterable[str] = (),
                 replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError("replicas must be positive")
        self.replicas = replicas
        self._ring: list[tuple[int, str]] = []
        self._points: list[int] = []  # ring points alone, for bisect
        self._shards: set[str] = set()
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    @staticmethod
    def _point(label: str) -> int:
        return int.from_bytes(sha256(label.encode("utf-8"))[:8], "big")

    def add_shard(self, shard_id: str) -> None:
        """Insert a shard's virtual points into the ring."""
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} already routed")
        self._shards.add(shard_id)
        for replica in range(self.replicas):
            self._ring.append((self._point(f"{shard_id}#{replica}"),
                               shard_id))
        self._ring.sort()
        self._points = [point for point, _ in self._ring]

    def route(self, account: str) -> str:
        """The shard an account's state lives on."""
        if not self._ring:
            raise LookupError("no shards routed")
        index = bisect_right(self._points, self._point(account))
        if index == len(self._ring):
            index = 0  # wrap past the highest ring point
        return self._ring[index][1]


class ServerPool:
    """N same-key ``WebServer`` replicas behind one consistent-hash router.

    All replicas share the verification cache (its keys are content
    digests, so sharing is sound) and the key pair the first one
    generates from ``key_seed``.  Each later replica draws its nonces from
    a DRBG of its own, personalized with its certificate's serial, so no
    two replicas mint the same nonce stream.  Accounts are provisioned on
    their ring-assigned home shard, whose ring has 64 virtual points per
    shard.
    """

    def __init__(self, domain: str, ca: CertificateAuthority,
                 key_seed: bytes, n_shards: int, key_bits: int = 1024,
                 verification_cache=None, obs=None) -> None:
        if n_shards < 1:
            raise ValueError("a pool needs at least one shard")
        self.domain = domain
        self.router = ConsistentHashRouter()
        # Every shard gets the same ``obs``, so all replicas trace into
        # one tree.
        self.shards: dict[str, WebServer] = {}
        for index in range(n_shards):
            shard_id = f"shard-{index}"
            self.shards[shard_id] = WebServer(
                domain, ca, key_seed, key_bits=key_bits,
                verification_cache=verification_cache, obs=obs,
                replica_of=self.shards.get("shard-0"))
            self.router.add_shard(shard_id)

    # -------------------------------------------------------------- routing
    @property
    def shard_ids(self) -> list[str]:
        """Live shard ids, sorted."""
        return sorted(self.shards)

    def shard_for(self, account: str) -> WebServer:
        """The replica currently owning an account."""
        return self.shards[self.router.route(account)]

    def create_account(self, account: str, reset_phrase: str) -> None:
        """Provision an account on its home shard."""
        self.shard_for(account).create_account(account, reset_phrase)

    # ------------------------------------------------------------ aggregates
    def rejection_totals(self) -> Counter:
        """Rejection-code counters summed across shards."""
        totals: Counter = Counter()
        for shard_id in sorted(self.shards):
            totals.update(self.shards[shard_id].rejections)
        return totals

    def account_totals(self) -> dict[str, int]:
        """Accounts per shard (sorted by shard id)."""
        return {shard_id: len(self.shards[shard_id].accounts())
                for shard_id in sorted(self.shards)}
