"""One device, several web services: independent bindings and sessions."""

import numpy as np
import pytest

from repro.crypto import CertificateAuthority, HmacDrbg
from repro.fingerprint import enroll_master, synthesize_master
from repro.net import (
    MobileDevice,
    TrustClient,
    UntrustedChannel,
    WebServer,
)

BUTTON_XY = (28.0, 80.0)
DOMAINS = ("www.bank.example", "www.mail.example", "www.social.example")


@pytest.fixture(scope="module")
def multi_world():
    ca = CertificateAuthority(rng=HmacDrbg(b"ca-multi"), key_bits=1024)
    master = synthesize_master("multi-alice", np.random.default_rng(5))
    template = enroll_master(master, np.random.default_rng(6))
    device = MobileDevice("multi-phone", b"multi-phone-seed", ca=ca)
    device.flock.enroll_local_user(template)
    servers = {}
    channel = UntrustedChannel()
    rng = np.random.default_rng(7)
    for index, domain in enumerate(DOMAINS):
        server = WebServer(domain, ca, f"srv-{index}".encode())
        server.create_account("alice", "pw")
        outcome = TrustClient(device, server, channel).register(
            "alice", BUTTON_XY, master, rng)
        assert outcome.success, (domain, outcome.reason)
        servers[domain] = server
    return device, servers, master


class TestMultiService:
    def test_three_independent_bindings(self, multi_world):
        device, servers, _ = multi_world
        records = device.flock.flash.all_records()
        assert [record.domain for record in records] == sorted(DOMAINS)
        keys = {record.domain: record.public_view().public_key
                for record in records}
        assert len({(k.n, k.e) for k in keys.values()}) == 3  # distinct pairs

    def test_server_bindings_are_isolated(self, multi_world):
        """Bank's stored key verifies only the bank's service signatures."""
        device, servers, _ = multi_world
        bank_key = servers[DOMAINS[0]].account_key("alice")
        mail_signature = device.flock.sign_for_service(DOMAINS[1], b"m")
        assert not bank_key.verify(b"m", mail_signature)
        bank_signature = device.flock.sign_for_service(DOMAINS[0], b"m")
        assert bank_key.verify(b"m", bank_signature)

    def test_concurrent_sessions(self, multi_world):
        device, servers, master = multi_world
        rng = np.random.default_rng(8)
        channel = UntrustedChannel()
        clients = {domain: TrustClient(device, servers[domain], channel)
                   for domain in DOMAINS}
        sessions = {}
        for domain in DOMAINS:
            outcome = clients[domain].login("alice", BUTTON_XY, master, rng)
            assert outcome.success, (domain, outcome.reason)
            sessions[domain] = outcome.session
        # Interleave requests across the three live sessions.
        for round_index in range(3):
            for domain in DOMAINS:
                result = clients[domain].request(sessions[domain], risk=0.0,
                                                 rng=rng)
                assert result.success, (domain, result.reason)
        for domain in DOMAINS:
            state = servers[domain].session(sessions[domain].session_id)
            assert state.request_count == 3
            device.flock.close_session(domain)

    def test_session_keys_do_not_cross_domains(self, multi_world):
        device, servers, master = multi_world
        rng = np.random.default_rng(9)
        channel = UntrustedChannel()
        outcome_a = TrustClient(device, servers[DOMAINS[0]], channel).login(
            "alice", BUTTON_XY, master, rng)
        outcome_b = TrustClient(device, servers[DOMAINS[1]], channel).login(
            "alice", BUTTON_XY, master, rng)
        assert outcome_a.success and outcome_b.success
        tag = device.flock.session_mac(DOMAINS[0], b"payload")
        assert not device.flock.verify_session_mac(DOMAINS[1], b"payload", tag)
        for domain in DOMAINS[:2]:
            device.flock.close_session(domain)

    def test_unbinding_one_leaves_others(self, multi_world):
        device, servers, master = multi_world
        device.flock.unbind_service(DOMAINS[2])
        assert not device.flock.flash.has_record(DOMAINS[2])
        assert device.flock.flash.has_record(DOMAINS[0])
        # Re-bind for other tests' sake.
        rng = np.random.default_rng(10)
        channel = UntrustedChannel()
        servers[DOMAINS[2]].reset_identity("alice", "pw")
        outcome = TrustClient(device, servers[DOMAINS[2]], channel).register(
            "alice", BUTTON_XY, master, rng)
        assert outcome.success
