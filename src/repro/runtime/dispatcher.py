"""Per-account sharding: consistent-hash router + web-server replica pool.

A TRUST service at fleet scale is one *logical* domain served by N
``WebServer`` replicas.  Every replica is constructed from the same key
seed, so they share the service key pair and certificate — exactly like a
replicated HTTPS deployment sharing one TLS key — and a device's stored
per-domain binding verifies against any of them.  What is *sharded* is the
account database: each account lives on exactly one replica, chosen by a
consistent-hash ring over account names, so adding or removing a shard
moves only ~K/N accounts (``ServerPool.rebalance``).
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
    is a plain sorted list — lookups are ``bisect``, and membership
    changes rebuild only the affected points.
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

    def remove_shard(self, shard_id: str) -> None:
        """Drop a shard's virtual points from the ring."""
        if shard_id not in self._shards:
            raise KeyError(f"shard {shard_id!r} not routed")
        self._shards.discard(shard_id)
        self._ring = [(point, sid) for point, sid in self._ring
                      if sid != shard_id]
        self._points = [point for point, _ in self._ring]

    @property
    def shard_ids(self) -> list[str]:
        """Routed shards, sorted."""
        return sorted(self._shards)

    def route(self, account: str) -> str:
        """The shard an account's state lives on."""
        if not self._ring:
            raise LookupError("no shards routed")
        index = bisect_right(self._points, self._point(account))
        if index == len(self._ring):
            index = 0  # wrap past the highest ring point
        return self._ring[index][1]

    def assignments(self, accounts: Iterable[str]) -> dict[str, str]:
        """Snapshot mapping of each account to its shard."""
        return {account: self.route(account) for account in accounts}


class ServerPool:
    """N same-key ``WebServer`` replicas behind one consistent-hash router.

    All replicas share the verification cache (its keys are content
    digests, so sharing is sound) and the same key seed (replica
    semantics).  Accounts are provisioned on — and migrate between —
    their ring-assigned home shard.
    """

    def __init__(self, domain: str, ca: CertificateAuthority,
                 key_seed: bytes, n_shards: int, key_bits: int = 1024,
                 verification_cache=None, ring_replicas: int = 64,
                 obs=None) -> None:
        if n_shards < 1:
            raise ValueError("a pool needs at least one shard")
        self.domain = domain
        self.ca = ca
        self._key_seed = key_seed
        self.key_bits = key_bits
        self.verification_cache = verification_cache
        #: Instrumentation handed to every shard (including ones added
        #: later), so all replicas trace into one tree.
        self.obs = obs
        self.router = ConsistentHashRouter(replicas=ring_replicas)
        self.shards: dict[str, WebServer] = {}
        self._next_index = 0
        for _ in range(n_shards):
            self.add_shard()

    # ------------------------------------------------------------ membership
    def add_shard(self) -> str:
        """Bring up one more replica; returns its shard id.

        The new shard immediately takes ring ownership of its key range;
        call :meth:`rebalance` to actually move the affected accounts.
        """
        shard_id = f"shard-{self._next_index}"
        self._next_index += 1
        self.shards[shard_id] = WebServer(
            self.domain, self.ca, self._key_seed, key_bits=self.key_bits,
            verification_cache=self.verification_cache, obs=self.obs)
        self.router.add_shard(shard_id)
        return shard_id

    def remove_shard(self, shard_id: str) -> list[tuple[str, str, str]]:
        """Drain and retire a replica; returns the moves made."""
        if shard_id not in self.shards:
            raise KeyError(f"unknown shard {shard_id!r}")
        self.router.remove_shard(shard_id)
        retired = self.shards.pop(shard_id)
        moved = []
        for account in retired.accounts():
            home = self.router.route(account)
            self.shards[home].import_account(
                account, retired.export_account(account))
            moved.append((account, shard_id, home))
        return moved

    def rebalance(self) -> list[tuple[str, str, str]]:
        """Move every misplaced account to its ring home.

        Returns ``(account, from_shard, to_shard)`` tuples; consistent
        hashing keeps this list to roughly K/N of the accounts after a
        membership change.
        """
        moved = []
        for shard_id in sorted(self.shards):
            shard = self.shards[shard_id]
            for account in shard.accounts():
                home = self.router.route(account)
                if home != shard_id:
                    self.shards[home].import_account(
                        account, shard.export_account(account))
                    moved.append((account, shard_id, home))
        return moved

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
