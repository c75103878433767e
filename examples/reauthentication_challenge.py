#!/usr/bin/env python3
"""The re-authentication challenge: graduated response to elevated risk.

Between "everything is fine" and "terminate the session" sits the
challenge band: when a session's reported identity risk is elevated but
not damning, the server withholds content and demands a *fresh verified
touch*, attested by FLock.  The genuine user passes with one press; an
impostor cannot — FLock refuses to mint the attestation without a
verified capture, and the generic MAC oracle refuses attestation-prefixed
messages, so malware cannot forge one either.

Run:  python examples/reauthentication_challenge.py
"""

import numpy as np

from repro.eval import LOGIN_BUTTON_XY, standard_deployment
from repro.flock import FlockError
from repro.net import TrustClient


def main() -> None:
    world = standard_deployment(seed=2024)
    rng = np.random.default_rng(3)
    client = TrustClient(world.device, world.server)

    print("=== Login ===")
    outcome = client.login(world.account, LOGIN_BUTTON_XY, world.user_master,
                           rng)
    print(f"login: {outcome.reason}")
    session = outcome.session

    print("\n=== Risk drifts up (a stretch of unverified touches) ===")
    result = client.request(session, risk=0.6, rng=rng)
    print(f"request at risk 0.60: {result.reason}")
    assert result.reason == "challenge-required"

    print("\n=== An impostor tries to answer the challenge ===")
    bad = client.answer_challenge(session, LOGIN_BUTTON_XY,
                                  world.impostor_master, rng)
    print(f"impostor's answer: {bad.reason}")

    print("\n=== Malware tries to forge the attestation directly ===")
    try:
        world.device.flock.session_mac(world.server.domain,
                                       b"flock-attest:forged")
        print("malware forged an attestation (BAD)")
    except FlockError as exc:
        print(f"FLock refused: {exc}")

    print("\n=== The genuine user touches once ===")
    good = client.answer_challenge(session, LOGIN_BUTTON_XY,
                                   world.user_master, rng)
    print(f"genuine answer: {good.reason}")

    result = client.request(session, risk=0.1, rng=rng)
    print(f"follow-up request: {result.reason}")
    state = world.server.session(session.session_id)
    print(f"\nserver stats: {state.challenges_issued} challenge issued, "
          f"{state.challenges_passed} passed")
    world.device.flock.close_session(world.server.domain)

    print("\nThe challenge is the remote analogue of the paper's CHALLENGE")
    print("response: cheaper than terminating, stronger than trusting.")


if __name__ == "__main__":
    main()
