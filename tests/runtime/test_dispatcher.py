"""Consistent-hash routing and account migration across the replica pool."""

from collections import Counter

import numpy as np
import pytest

from repro.fingerprint import enroll_master, synthesize_master
from repro.net import MobileDevice, ProtocolError, TrustClient, UntrustedChannel
from repro.runtime import BUTTON_XY, ConsistentHashRouter, ServerPool


class TestConsistentHashRouter:
    def test_routing_is_stable(self):
        shards = ["shard-0", "shard-1", "shard-2", "shard-3"]
        a = ConsistentHashRouter(shards)
        b = ConsistentHashRouter(shards)
        accounts = [f"user-{i:05d}" for i in range(100)]
        assert [a.route(x) for x in accounts] == [b.route(x) for x in accounts]

    def test_every_shard_gets_accounts(self):
        router = ConsistentHashRouter([f"shard-{i}" for i in range(4)])
        accounts = [f"user-{i:05d}" for i in range(400)]
        homes = {router.route(account) for account in accounts}
        assert homes == {f"shard-{i}" for i in range(4)}

    @pytest.mark.parametrize("n_shards", [2, 4, 8, 16])
    def test_adding_a_shard_only_moves_accounts_onto_it(self, n_shards):
        accounts = [f"user-{i:05d}" for i in range(2000)]
        router = ConsistentHashRouter([f"shard-{i}" for i in range(n_shards)])
        before = {account: router.route(account) for account in accounts}
        router.add_shard("shard-new")
        moved = [a for a in accounts if router.route(a) != before[a]]
        # Everything that moved, moved *to* the new shard (the defining
        # property of consistent hashing), and only roughly 1/(n+1) moved.
        assert moved, "a new shard must claim part of the ring"
        assert all(router.route(a) == "shard-new" for a in moved)
        share = len(moved) / len(accounts)
        assert 0.5 / (n_shards + 1) <= share <= 1.5 / (n_shards + 1)

    @pytest.mark.parametrize("n_shards", [2, 4, 8, 16])
    def test_load_is_balanced(self, n_shards):
        """64 virtual points per shard keep every shard within half of
        its fair share of accounts either way."""
        router = ConsistentHashRouter([f"shard-{i}" for i in range(n_shards)])
        accounts = [f"user-{i:05d}" for i in range(2000)]
        counts = Counter(router.route(account) for account in accounts)
        fair = len(accounts) / n_shards
        assert len(counts) == n_shards
        assert all(0.5 * fair <= count <= 1.5 * fair
                   for count in counts.values())

    def test_membership_errors(self):
        router = ConsistentHashRouter(["shard-0"])
        with pytest.raises(ValueError):
            router.add_shard("shard-0")
        with pytest.raises(ValueError):
            ConsistentHashRouter(replicas=0)
        with pytest.raises(LookupError):
            ConsistentHashRouter().route("user")


class TestServerPool:
    @pytest.fixture(scope="class")
    def deployment(self, ca):
        """A 3-shard pool plus one registered device/account pair."""
        pool = ServerPool("www.pool.example", ca, b"pool-service-key", 3,
                          key_bits=512)
        account = "user-00000"

        master = synthesize_master("pool-thumb", np.random.default_rng(50))
        template = enroll_master(master, np.random.default_rng(51))
        device = MobileDevice("pool-dev", b"pool-dev-seed", ca=ca,
                              processor_mode="modeled", key_bits=512)
        device.flock.enroll_local_user(template)
        pool.create_account(account, "pool-reset-phrase")
        client = TrustClient(device, pool.shard_for(account),
                             UntrustedChannel())
        outcome = client.register(account, BUTTON_XY, master,
                                  np.random.default_rng(52))
        assert outcome.success, outcome.reason
        return pool, client, account, master

    def test_replicas_share_the_service_key(self, deployment):
        pool, _, _, _ = deployment
        keys = {pool.shards[sid].certificate.public_key.to_bytes()
                for sid in pool.shard_ids}
        assert len(keys) == 1

    def test_account_lives_on_exactly_one_shard(self, deployment):
        pool, _, account, _ = deployment
        holders = [sid for sid in pool.shard_ids
                   if account in pool.shards[sid].accounts()]
        assert holders == [pool.router.route(account)]

    def test_migrated_account_logs_in_on_another_shard(self, deployment):
        """An exported account imported into another replica leaves its
        old shard, and its stored binding verifies there: every replica
        holds the same service key."""
        pool, client, account, master = deployment
        home = pool.shard_for(account)
        other = next(pool.shards[sid] for sid in pool.shard_ids
                     if pool.shards[sid] is not home)
        other.import_account(account, home.export_account(account))
        assert account not in home.accounts()
        assert account in other.accounts()

        client.server = other
        outcome = client.login(account, BUTTON_XY, master,
                               np.random.default_rng(53))
        assert outcome.success, outcome.reason
        client.device.flock.close_session(pool.domain)
        # Send the account home again for the rest of the class.
        home.import_account(account, other.export_account(account))
        client.server = home

    def test_export_import_round_trip_errors(self, ca):
        pool = ServerPool("www.exp.example", ca, b"exp-key", 2, key_bits=512)
        pool.create_account("alice", "pw")
        home = pool.shard_for("alice")
        other = pool.shards[next(sid for sid in pool.shard_ids
                                 if pool.shards[sid] is not home)]
        with pytest.raises(ProtocolError) as excinfo:
            other.export_account("alice")
        assert excinfo.value.reason == "unknown-account"
        record = home.export_account("alice")
        home.import_account("alice", record)
        with pytest.raises(ValueError):
            home.import_account("alice", record)
