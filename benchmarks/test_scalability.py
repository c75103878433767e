"""S1 — server-side scalability of continuous identity management.

The paper's pitch to service operators is that continuous per-touch
verification replaces CAPTCHAs and cookie-expiry heuristics.  That only
flies if the per-request server cost is symmetric-crypto cheap and state
grows linearly with live sessions.  This bench loads one server with many
concurrent device sessions and measures request handling throughput and
state growth.
"""

import numpy as np

from repro.crypto import CertificateAuthority, HmacDrbg
from repro.eval import render_table
from repro.fingerprint import DEFAULT_PARTIAL_MODEL, enroll_master, synthesize_master
from repro.net import (
    MobileDevice,
    TrustClient,
    UntrustedChannel,
    WebServer,
)
from .conftest import emit

BUTTON_XY = (28.0, 80.0)
N_DEVICES = 8
REQUESTS_PER_SESSION = 12


def test_scalability(benchmark, rng):
    ca = CertificateAuthority(rng=HmacDrbg(b"ca-scale"), key_bits=1024)
    server = WebServer("www.scale.example", ca, b"scale-server")
    master = synthesize_master("scale-user", np.random.default_rng(600))
    template = enroll_master(master, np.random.default_rng(601))

    clients = []
    channel = UntrustedChannel()
    for index in range(N_DEVICES):
        account = f"user{index:02d}"
        server.create_account(account, "pw")
        device = MobileDevice(f"scale-dev-{index}",
                              f"scale-seed-{index}".encode(), ca=ca,
                              processor_mode="modeled")
        device.flock.enroll_local_user(template,
                                       score_model=DEFAULT_PARTIAL_MODEL)
        client = TrustClient(device, server, channel)
        outcome = client.register(account, BUTTON_XY, master,
                                  np.random.default_rng(700 + index))
        assert outcome.success, outcome.reason
        clients.append((account, client))

    sessions = []
    for index, (account, client) in enumerate(clients):
        outcome = client.login(account, BUTTON_XY, master,
                               np.random.default_rng(800 + index))
        assert outcome.success, outcome.reason
        sessions.append((client, outcome.session))
    assert server.active_sessions == N_DEVICES

    def drive_all_sessions():
        served = 0
        for round_index in range(REQUESTS_PER_SESSION):
            for client, session in sessions:
                result = client.request(session, risk=0.05, rng=rng)
                assert result.success, result.reason
                served += 1
        return served

    served = benchmark.pedantic(drive_all_sessions, rounds=1, iterations=1)

    per_request_bytes = channel.bytes_to_server / max(channel.message_count, 1)
    table = render_table(
        ["metric", "value"],
        [
            ["concurrent sessions", server.active_sessions],
            ["requests served", served],
            ["audit-log entries", len(server.frame_audit_log)],
            ["outstanding nonces", server.active_sessions],
            ["mean wire bytes/message", f"{per_request_bytes:.0f}"],
            ["rejections during load", sum(server.rejections.values())],
        ],
        title=f"S1: one server, {N_DEVICES} live continuous-auth sessions")
    emit("S1_scalability", table)

    for client, _ in sessions:
        client.device.flock.close_session(server.domain)

    # Shape assertions: every request served, state linear in sessions,
    # exactly one outstanding nonce per live session.
    assert served == N_DEVICES * REQUESTS_PER_SESSION
    assert len(server._outstanding_nonces) == N_DEVICES
    assert sum(server.rejections.values()) == 0
