"""E8 — Fig. 9: the device-to-user-account binding protocol, end to end.

Measures the cost profile of one registration: message count, bytes each
way, and FLock's modeled crypto budget broken down by operation (the
per-service RSA key generation dominates, as the paper's design implies).
"""

import numpy as np

from repro.crypto import CertificateAuthority, HmacDrbg
from repro.eval import render_table, standard_deployment
from repro.flock import crypto_processor as costs
from repro.net import TrustClient, WebServer
from .conftest import emit

BUTTON_XY = (28.0, 80.0)


def test_registration(benchmark, rng):
    world = standard_deployment(seed=42)

    counter = {"n": 0}

    def one_registration():
        # Fresh server + account each round so every run is a true Fig. 9
        # first-contact binding.
        counter["n"] += 1
        index = counter["n"]
        server = WebServer(f"www.shop{index}.example", world.ca,
                           f"e8-server-{index}".encode())
        server.create_account("alice", "pw")
        ops_before = dict(world.device.flock.crypto.ops)
        outcome = TrustClient(world.device, server, world.channel).register(
            "alice", BUTTON_XY, world.user_master,
            np.random.default_rng(index))
        assert outcome.success, outcome.reason
        world.device.flock.unbind_service(server.domain)
        ops_after = world.device.flock.crypto.ops
        ops_delta = {op: ops_after.get(op, 0) - ops_before.get(op, 0)
                     for op in ops_after}
        return outcome, ops_delta

    outcome, ops_delta = benchmark.pedantic(one_registration, rounds=3,
                                            iterations=1)

    cost_of = {
        "keygen": costs.KEYGEN_S, "sign": costs.SIGN_S,
        "verify": costs.VERIFY_S, "rsa_encrypt": costs.RSA_ENCRYPT_S,
        "rsa_decrypt": costs.RSA_DECRYPT_S,
    }
    op_rows = [
        [op, count, f"{cost_of.get(op, 0.0) * count * 1000:.1f} ms"]
        for op, count in sorted(ops_delta.items()) if count > 0
    ]
    table = render_table(
        ["metric", "value"],
        [
            ["protocol messages", outcome.messages],
            ["bytes to server", outcome.bytes_to_server],
            ["bytes to device", outcome.bytes_to_device],
            ["modeled FLock crypto time", f"{outcome.crypto_time_s * 1000:.0f} ms"],
            ["frame hash attached", outcome.frame_hash is not None],
        ],
        title="E8: one Fig. 9 registration, measured")
    ops_table = render_table(["FLock crypto op", "count", "modeled time"],
                             op_rows, title="crypto breakdown per binding")
    emit("E8_registration", table + "\n\n" + ops_table)

    # Shape assertions.
    assert outcome.messages == 3  # page, submission, ack
    assert ops_delta.get("keygen", 0) == 1  # one fresh key pair per service
    assert outcome.crypto_time_s > 0.1  # keygen dominates
    assert outcome.bytes_to_server < 4096  # cookie-extension sized
