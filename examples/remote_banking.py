#!/usr/bin/env python3
"""Remote identity management: a banking session under attack.

Three acts:

1. Alice banks normally — every page request carries her live identity
   risk and the hash of the frame she actually saw.
2. A network adversary replays her recorded requests — each one bounces
   off the server's one-time nonces.
3. Malware hijacks the session and floods requests with no touches behind
   them — the risk report climbs and the server kills the session.

Run:  python examples/remote_banking.py
"""

import numpy as np

from repro.attacks import fake_touch_attack, replay_trust_traffic
from repro.core import TrustCoordinator
from repro.crypto import CertificateAuthority, HmacDrbg
from repro.fingerprint import enroll_master, synthesize_master
from repro.net import MobileDevice, TrustClient, UntrustedChannel, WebServer
from repro.touchgen import SessionConfig, SessionGenerator, example_users

LOGIN_BUTTON = (28.0, 80.0)


def main() -> None:
    rng = np.random.default_rng(99)
    alice = example_users()[0]
    alice_finger = synthesize_master(alice.finger_id, rng)

    ca = CertificateAuthority(rng=HmacDrbg(b"bank-ca"))
    bank = WebServer("www.bank.example", ca, b"bank-server")
    bank.create_account("alice", "reset-fallback-password")
    device = MobileDevice("alice-phone", b"bank-device", ca=ca)
    device.flock.enroll_local_user(enroll_master(alice_finger, rng))

    channel = UntrustedChannel()
    assert TrustClient(device, bank, channel).register(
        "alice", LOGIN_BUTTON, alice_finger, rng).success
    print("device bound to account 'alice' at", bank.domain)

    # ---- Act 1: honest banking -------------------------------------------
    print("\n=== Act 1: Alice banks normally ===")
    trace = SessionGenerator(alice).generate(
        SessionConfig(n_interactions=30,
                      layout_mix=(("bank-app", 0.7), ("keyboard", 0.3))),
        seed=5)
    coordinator = TrustCoordinator(device, bank, channel, "alice",
                                   login_button_xy=LOGIN_BUTTON)
    report = coordinator.run_session(
        trace.gestures, {alice.finger_id: alice_finger}, rng,
        login_master=alice_finger)
    print(f"login: {report.login.reason}; "
          f"{report.requests_ok} requests served, "
          f"{report.requests_failed} failed, terminated={report.terminated}")
    risks = report.risk_series
    print(f"risk along the session: min={min(risks):.2f} "
          f"max={max(risks):.2f} (server cut-off is 0.75)")
    device.flock.close_session(bank.domain)

    # ---- Act 2: network replay -------------------------------------------
    print("\n=== Act 2: an on-path adversary replays recorded requests ===")
    result = replay_trust_traffic(bank, channel, "page-request")
    print(" ", result)

    # ---- Act 3: malware floods fake requests ------------------------------
    print("\n=== Act 3: malware issues requests with no touches ===")
    result = fake_touch_attack(device, bank, "alice", LOGIN_BUTTON,
                               alice_finger, rng)
    print(" ", result)

    print("\nThe server never needed a CAPTCHA, cookie expiry or re-login "
          "prompt:\ncontinuous fingerprint evidence (or its absence) did "
          "all the work.")


if __name__ == "__main__":
    main()
