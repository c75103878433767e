#!/usr/bin/env python3
"""Quickstart: the whole TRUST stack in one script.

Builds a deployment from scratch (CA, web server, mobile device with a
FLock module and in-display fingerprint sensors), enrolls a user, registers
the device with the server (Fig. 9), logs in, and browses with continuous
per-touch authentication (Fig. 10) — printing what happens at each step.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.crypto import CertificateAuthority, HmacDrbg
from repro.fingerprint import enroll_master, synthesize_master
from repro.net import (
    MobileDevice,
    TrustClient,
    WebServer,
)

LOGIN_BUTTON = (28.0, 80.0)  # over the bottom-centre fingerprint sensor


def main() -> None:
    rng = np.random.default_rng(2012)

    print("=== 1. The physical world ===")
    alice_finger = synthesize_master("alice-right-thumb", rng)
    print(f"synthesized Alice's finger: pattern={alice_finger.pattern_name}, "
          f"ridge period={alice_finger.wavelength:.1f}px")

    print("\n=== 2. The deployment (Fig. 8) ===")
    ca = CertificateAuthority(rng=HmacDrbg(b"quickstart-ca"))
    server = WebServer("www.bank.example", ca, b"quickstart-server")
    server.create_account("alice", "legacy-password-for-reset")
    device = MobileDevice("alice-phone", b"quickstart-device", ca=ca)
    print(f"CA online; server '{server.domain}' has a CA-signed certificate")
    print(f"device '{device.device_id}' carries a FLock module with "
          f"{len(device.layout.sensors)} in-display TFT fingerprint sensors "
          f"({device.layout.area_fraction():.0%} of the screen)")

    print("\n=== 3. Enrollment ===")
    template = enroll_master(alice_finger, rng)
    device.flock.enroll_local_user(template)
    print(f"enrolled template with {template.size} minutiae "
          f"(stored only inside FLock's protected flash)")

    print("\n=== 4. Device-to-account binding (Fig. 9) ===")
    client = TrustClient(device, server)
    outcome = client.register("alice", LOGIN_BUTTON, alice_finger, rng)
    print(f"registration: {outcome.reason} "
          f"({outcome.messages} messages, "
          f"{outcome.bytes_to_server + outcome.bytes_to_device} bytes, "
          f"{outcome.crypto_time_s * 1000:.0f} ms modeled crypto)")
    assert outcome.success

    print("\n=== 5. Login + continuous authentication (Fig. 10) ===")
    outcome = client.login("alice", LOGIN_BUTTON, alice_finger, rng)
    print(f"login: {outcome.reason}; session {outcome.session.session_id}")
    assert outcome.success
    for index in range(5):
        result = client.request(
            outcome.session, risk=0.0, rng=rng, touch_xy=LOGIN_BUTTON,
            master=alice_finger, time_s=10.0 + index)
        print(f"  request {index + 1}: {result.reason} "
              f"(fresh nonce, frame hash attested, "
              f"{result.bytes_to_server} B up)")

    state = server.session(outcome.session.session_id)
    print(f"\nserver saw {state.request_count} authenticated requests; "
          f"frame-hash audit log holds {len(server.frame_audit_log)} entries")
    print("\nEvery request was authenticated by Alice's physical touches —")
    print("no password typed, no explicit login step beyond touching the UI.")


if __name__ == "__main__":
    main()
