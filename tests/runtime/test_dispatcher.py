"""Consistent-hash routing and account migration across the replica pool."""

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
        assert a.assignments(accounts) == b.assignments(accounts)

    def test_every_shard_gets_accounts(self):
        router = ConsistentHashRouter([f"shard-{i}" for i in range(4)])
        accounts = [f"user-{i:05d}" for i in range(400)]
        homes = set(router.assignments(accounts).values())
        assert homes == set(router.shard_ids)

    def test_adding_a_shard_only_moves_accounts_onto_it(self):
        accounts = [f"user-{i:05d}" for i in range(400)]
        router = ConsistentHashRouter([f"shard-{i}" for i in range(4)])
        before = router.assignments(accounts)
        router.add_shard("shard-4")
        after = router.assignments(accounts)
        moved = [a for a in accounts if before[a] != after[a]]
        # Everything that moved, moved *to* the new shard (the defining
        # property of consistent hashing), and only roughly K/N moved.
        assert moved, "a 5th shard must claim part of the ring"
        assert all(after[a] == "shard-4" for a in moved)
        assert len(moved) / len(accounts) < 0.45

    def test_removing_a_shard_only_moves_its_accounts(self):
        accounts = [f"user-{i:05d}" for i in range(400)]
        router = ConsistentHashRouter([f"shard-{i}" for i in range(5)])
        before = router.assignments(accounts)
        router.remove_shard("shard-2")
        after = router.assignments(accounts)
        for account in accounts:
            if before[account] != "shard-2":
                assert after[account] == before[account]
            else:
                assert after[account] != "shard-2"

    def test_membership_errors(self):
        router = ConsistentHashRouter(["shard-0"])
        with pytest.raises(ValueError):
            router.add_shard("shard-0")
        with pytest.raises(KeyError):
            router.remove_shard("shard-9")
        with pytest.raises(ValueError):
            ConsistentHashRouter(replicas=0)
        with pytest.raises(LookupError):
            ConsistentHashRouter().route("user")


class TestServerPool:
    @pytest.fixture(scope="class")
    def deployment(self, ca):
        """A 3-shard pool plus one registered device/account pair.

        The account name is chosen (deterministically) so that bringing up
        ``shard-3`` re-homes it — the interesting rebalance case.
        """
        pool = ServerPool("www.pool.example", ca, b"pool-service-key", 3,
                          key_bits=512)
        grown = ConsistentHashRouter([f"shard-{i}" for i in range(4)])
        account = next(a for a in (f"user-{i:05d}" for i in range(1000))
                       if pool.router.route(a) != grown.route(a))

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

    def test_rebalance_moves_account_and_login_follows(self, deployment):
        pool, client, account, master = deployment
        old_home = pool.router.route(account)

        new_shard = pool.add_shard()
        moved = pool.rebalance()
        new_home = pool.router.route(account)
        assert new_home == new_shard
        assert (account, old_home, new_home) in moved
        assert account not in pool.shards[old_home].accounts()

        # The binding verifies against the new replica: same service key.
        client.server = pool.shard_for(account)
        outcome = client.login(account, BUTTON_XY, master,
                               np.random.default_rng(53))
        assert outcome.success, outcome.reason
        client.device.flock.close_session(pool.domain)

        # A second rebalance is a no-op: everything is already home.
        assert pool.rebalance() == []

    def test_remove_shard_drains_accounts(self, ca):
        pool = ServerPool("www.drain.example", ca, b"drain-key", 3,
                          key_bits=512)
        accounts = [f"user-{i:05d}" for i in range(30)]
        for account in accounts:
            pool.create_account(account, "pw")
        victim = "shard-1"
        resident = [a for a in accounts if pool.router.route(a) == victim]
        assert resident, "the victim shard should hold some accounts"

        moved = pool.remove_shard(victim)
        assert sorted(m[0] for m in moved) == sorted(resident)
        assert victim not in pool.shard_ids
        assert sum(pool.account_totals().values()) == len(accounts)
        for account in accounts:
            assert account in pool.shard_for(account).accounts()

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
