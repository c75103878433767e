"""Man-in-the-middle attacks on the untrusted channel (assumption iii).

Three classic MITM moves against the TRUST protocols:

- *field tampering*: rewrite risk / frame-hash / account fields in flight
  (defeated by MACs);
- *key substitution at registration*: swap the user's public key for the
  attacker's in the Fig. 9 submission (defeated by the device signature
  covering the whole submission);
- *certificate substitution*: present the attacker's certificate for the
  server's (defeated by CA verification inside FLock).
"""

from __future__ import annotations

import numpy as np

from repro.crypto import Certificate, HmacDrbg, generate_keypair
from repro.fingerprint import MasterFingerprint
from repro.net import (
    MobileDevice,
    TrustClient,
    UntrustedChannel,
    WebServer,
)
from .base import AttackResult

__all__ = ["tamper_risk_attack", "key_substitution_attack",
           "certificate_substitution_attack"]


def tamper_risk_attack(device: MobileDevice, server: WebServer,
                       account: str, button_xy: tuple[float, float],
                       master: MasterFingerprint,
                       rng: np.random.Generator) -> AttackResult:
    """Launder a risky session by zeroing the reported risk in flight."""
    def tamper(envelope, direction):
        if "risk" in envelope.fields and envelope.fields["risk"] > 0:
            envelope.fields["risk"] = 0.0
        return envelope

    channel = UntrustedChannel(tamper_hook=tamper)
    outcome = TrustClient(device, server, channel).login(
        account, button_xy, master, rng, risk=0.4)
    succeeded = outcome.success
    device.flock.close_session(server.domain)
    return AttackResult(
        name="mitm-risk-laundering",
        succeeded=succeeded,
        detected=not succeeded,
        detail=f"login outcome: {outcome.reason}",
        evidence={"reason": outcome.reason})


def key_substitution_attack(device: MobileDevice, server: WebServer,
                            account: str, button_xy: tuple[float, float],
                            master: MasterFingerprint,
                            rng: np.random.Generator) -> AttackResult:
    """Swap the registered public key for the attacker's key in flight."""
    attacker_key = generate_keypair(HmacDrbg(b"mitm-attacker"), bits=1024)

    def tamper(envelope, direction):
        if envelope.msg_type == "registration-submit":
            envelope.fields["user_public_key"] = \
                attacker_key.public_key.to_bytes()
        return envelope

    channel = UntrustedChannel(tamper_hook=tamper)
    outcome = TrustClient(device, server, channel).register(
        account, button_xy, master, rng)
    bound_public_key = server.account_key(account)
    hijacked = bound_public_key == attacker_key.public_key
    return AttackResult(
        name="mitm-key-substitution",
        succeeded=hijacked,
        detected=not outcome.success,
        detail=(f"registration outcome {outcome.reason}; "
                f"attacker key bound: {hijacked}"),
        evidence={"reason": outcome.reason, "attacker_bound": hijacked})


def certificate_substitution_attack(device: MobileDevice, server: WebServer,
                                    account: str,
                                    button_xy: tuple[float, float],
                                    master: MasterFingerprint,
                                    rng: np.random.Generator) -> AttackResult:
    """Impersonate the server with a self-signed lookalike certificate."""
    attacker_key = generate_keypair(HmacDrbg(b"mitm-fake-server"), bits=1024)
    fake_cert = Certificate(
        serial=999999, subject=server.domain, role="web-server",
        public_key=attacker_key.public_key, not_before=0,
        not_after=10**9, issuer="trust-ca",
        signature=attacker_key.sign(b"self-signed"),
    )

    def tamper(envelope, direction):
        if envelope.msg_type == "registration-page":
            envelope.fields["server_cert"] = fake_cert.to_bytes()
            # Re-sign the page with the attacker key so the MAC matches
            # the substituted certificate.
            envelope.fields.pop("mac", None)
            envelope.set_mac(attacker_key.sign(envelope.signed_bytes()))
        return envelope

    channel = UntrustedChannel(tamper_hook=tamper)
    outcome = TrustClient(device, server, channel).register(
        account, button_xy, master, rng)
    return AttackResult(
        name="mitm-cert-substitution",
        succeeded=outcome.success,
        detected=not outcome.success,
        detail=f"registration outcome: {outcome.reason}",
        evidence={"reason": outcome.reason})
