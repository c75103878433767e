"""Consistent-hash routing and account migration across the replica pool."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.crypto import CertificateAuthority, HmacDrbg
from repro.fingerprint import enroll_master, synthesize_master
from repro.net import (
    MSG_LOGIN_SUBMIT,
    MobileDevice,
    ProtocolError,
    TrustClient,
    UntrustedChannel,
)
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


#: A 3-shard pool's known answers.  The shared key (modulus and private
#: exponent) and every certificate were recorded when each replica ran its
#: own key generation from the pool's key seed, and shard 0's pages when
#: the replicas still drew its nonce stream.  Per replica: its
#: certificate's serial and SHA-256, then the nonce and signature SHA-256
#: of its first two registration pages (shards 1 and 2 re-recorded when
#: each replica got a DRBG of its own).
POOL_KEY_N = int(
    "d028c3f5773ac619aafea25daba508bdf10caecac114286ac6989836af9ef90b"
    "ffec555f368cdff77372ed493767dba5beba141c62673401af3344d25f58e83b", 16)
POOL_KEY_D = int(
    "5d52c978157a4e3257cd4d71fd7042191626ff7e7b4dd448fabc9311816f1e6c"
    "092ec597c81b80fd02cc799c04921e29e8c0d25a13ffd91e962edf34128f8cf1", 16)
POOL_REPLICAS = {
    "shard-0": (1, "7b8e4549e025f86c319b0f172b8306c8"
                   "890347bf5853f4ca568804890c5bda19",
                (("0127fc1748dd5c84974606bdb79b44c8",
                  "c1f8d927432834fdc38f8eb68fd5058c"
                  "85c103702d93d94981a035fec1779c36"),
                 ("c4908b05637a0f79871bc0191fed27fa",
                  "adff73643b2f8acc86eccaf5920c4a9f"
                  "e11406c07c7d2a4f74d31d47c9b859e4"))),
    "shard-1": (2, "928993d0f0765874a346bcc654a115e1"
                   "d15bfc8e48fd0de0cff4149b7f8d9bf4",
                (("6979df8b0add20a79be14d4e5c04566e",
                  "f70595fe94fc81a33f19f895e30d1a04"
                  "c0f4de456ea6a7a8c067268bda0a49f8"),
                 ("fb19eae636c497731fd0f35a4b4c2861",
                  "20f07776fb8c7d7b66d6cf3edfd9f8bd"
                  "10b59db399c75e3e7388b7e284b448d7"))),
    "shard-2": (3, "ff99f72cd7ce3ab63c78294ce9f2eeca"
                   "1a52302543441a803daa339b2904d41a",
                (("78f8c9f621863783124d8478f938b6db",
                  "f2064868e199f73504c44f1a03c0760d"
                  "87dd762c6831e787f0fb77de5d2d43e7"),
                 ("27b7bf117aadd27f3025a27e740aedf6",
                  "6800cc38522fe5895992d266a42e5e9b"
                  "01f93b0d5999ebde09c805fe272aec81"))),
}


def _answers_pool() -> ServerPool:
    ca = CertificateAuthority(rng=HmacDrbg(b"pool-answers-ca"), key_bits=512)
    return ServerPool("www.answers.example", ca, b"pool-answers-key", 3,
                      key_bits=512)


class TestServerPoolKnownAnswers:
    def test_replicas_match_known_answers(self):
        pool = _answers_pool()
        assert pool.shard_ids == sorted(POOL_REPLICAS)
        for shard_id, (serial, cert, pages) in POOL_REPLICAS.items():
            shard = pool.shards[shard_id]
            assert (shard._key.n, shard._key.d) == (POOL_KEY_N, POOL_KEY_D)
            assert shard.certificate.serial == serial
            assert hashlib.sha256(
                shard.certificate.to_bytes()).hexdigest() == cert
            for nonce, signature in pages:
                page = shard.registration_page()
                assert page.fields["nonce"].hex() == nonce
                assert hashlib.sha256(page.mac).hexdigest() == signature
                assert shard.certificate.public_key.verify(
                    page.signed_bytes(), page.mac)

    def test_one_key_generation_per_pool(self, monkeypatch):
        """The first replica mints the key; the others hold the same key
        object, each with a DRBG of its own."""
        from repro.net import webserver
        calls = []
        generate = webserver.generate_keypair

        def counted(*args, **kwargs):
            calls.append(args)
            return generate(*args, **kwargs)

        monkeypatch.setattr(webserver, "generate_keypair", counted)
        pool = _answers_pool()
        assert len(calls) == 1
        first, *replicas = (pool.shards[sid] for sid in pool.shard_ids)
        for replica in replicas:
            assert replica._key is first._key
            assert replica._rng is not first._rng
        # A replica's draws leave the others' streams where they were.
        replicas[0].registration_page()
        first_nonce = POOL_REPLICAS["shard-2"][2][0][0]
        assert replicas[1].registration_page().fields["nonce"].hex() \
            == first_nonce


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

    def test_migrated_account_rejects_a_recorded_login(self, ca):
        """A login submission recorded on an account's old shard carries a
        nonce its new shard never minted, however many login pages anyone
        fetches there: each replica draws a nonce stream of its own."""
        pool = ServerPool("www.replay.example", ca, b"replay-key", 2,
                          key_bits=512)
        master = synthesize_master("replay-thumb", np.random.default_rng(60))
        device = MobileDevice("replay-dev", b"replay-dev-seed", ca=ca,
                              processor_mode="modeled", key_bits=512)
        device.flock.enroll_local_user(
            enroll_master(master, np.random.default_rng(61)))
        pool.create_account("alice", "alice-reset-phrase")
        home = pool.shard_for("alice")
        other = next(pool.shards[sid] for sid in pool.shard_ids
                     if pool.shards[sid] is not home)
        channel = UntrustedChannel()
        client = TrustClient(device, home, channel)
        for step, seed in ((client.register, 62), (client.login, 63)):
            outcome = step("alice", BUTTON_XY, master,
                           np.random.default_rng(seed))
            assert outcome.success, outcome.reason
        recorded = channel.recorded(MSG_LOGIN_SUBMIT, "to-server")[-1]
        device.flock.close_session(pool.domain)

        other.import_account("alice", home.export_account("alice"))
        for _ in range(2):  # the old shard's draws before the login nonce
            other.login_page()
        with pytest.raises(ProtocolError) as excinfo:
            other.dispatch(recorded.envelope)
        assert excinfo.value.reason == "bad-nonce"
        assert other.active_sessions == 0

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason=(
        "ROADMAP item 7: a restarted shard rebuilds its DRBG from the key "
        "seed, so its nonce stream starts over and the recorded login "
        "opens a session"))
    def test_restarted_shard_rejects_a_recorded_login(self):
        """A login submission recorded before a shard crashed must not open
        a session once the shard restarts with the account re-imported,
        however many login pages anyone fetches there."""

        def build_pool():
            ca = CertificateAuthority(rng=HmacDrbg(b"restart-ca"),
                                      key_bits=512)
            return ca, ServerPool("www.restart.example", ca,
                                  b"restart-key", 2, key_bits=512)

        ca, pool = build_pool()
        master = synthesize_master("restart-thumb",
                                   np.random.default_rng(70))
        device = MobileDevice("restart-dev", b"restart-dev-seed", ca=ca,
                              processor_mode="modeled", key_bits=512)
        device.flock.enroll_local_user(
            enroll_master(master, np.random.default_rng(71)))
        pool.create_account("alice", "alice-reset-phrase")
        home = pool.shard_for("alice")
        assert home is pool.shards["shard-1"]
        channel = UntrustedChannel()
        client = TrustClient(device, home, channel)
        for step, seed in ((client.register, 72), (client.login, 73)):
            outcome = step("alice", BUTTON_XY, master,
                           np.random.default_rng(seed))
            assert outcome.success, outcome.reason
        recorded = channel.recorded(MSG_LOGIN_SUBMIT, "to-server")[-1]
        device.flock.close_session(pool.domain)
        record = home.export_account("alice")

        # The crash: the pool comes back from the same CA and key seeds,
        # and the account database is re-imported.
        _, restarted_pool = build_pool()
        restarted = restarted_pool.shards["shard-1"]
        restarted.import_account("alice", record)
        for _ in range(2):  # the draws before the recorded login's nonce
            restarted.login_page()
        with pytest.raises(ProtocolError):
            restarted.dispatch(recorded.envelope)
        assert restarted.active_sessions == 0

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
