"""Standard experiment deployments shared by benchmarks and examples.

Building a full TRUST deployment means synthesizing fingers, enrolling
templates, minting a CA and RSA keys — about half a second of work on a
2-core x86 VM, which every benchmark needs.  :func:`standard_deployment`
builds it once per (seed, mode) and caches it per process;
:func:`build_deployment` builds a world its caller owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.crypto import CertificateAuthority, HmacDrbg
from repro.fingerprint import (
    FingerprintTemplate,
    MasterFingerprint,
    enroll_master,
    synthesize_master,
)
from repro.net import MobileDevice, TrustClient, UntrustedChannel, WebServer

__all__ = ["Deployment", "build_deployment", "standard_deployment",
           "LOGIN_BUTTON_XY"]

#: Where the standard layouts place login/confirm buttons: over the
#: bottom-centre sensor of the default device layout.
LOGIN_BUTTON_XY = (28.0, 80.0)


@dataclass
class Deployment:
    """One ready-to-use TRUST world."""

    ca: CertificateAuthority
    device: MobileDevice
    server: WebServer
    channel: UntrustedChannel
    account: str
    user_master: MasterFingerprint
    user_template: FingerprintTemplate
    impostor_master: MasterFingerprint

    def fresh_channel(self) -> UntrustedChannel:
        """A new clean channel (state-isolating individual experiments)."""
        self.channel = UntrustedChannel()
        return self.channel


def build_deployment(seed: int = 42, processor_mode: str = "image",
                     registered: bool = True) -> Deployment:
    """A fresh, fully-bound deployment, shared with no other caller."""
    rng = np.random.default_rng(seed)
    ca = CertificateAuthority(rng=HmacDrbg(f"ca-{seed}".encode()),
                              key_bits=1024)
    user_master = synthesize_master("user1-right-thumb", rng)
    impostor_master = synthesize_master("impostor-thumb",
                                        np.random.default_rng(seed + 9000))
    template = enroll_master(user_master, np.random.default_rng(seed + 1))

    device = MobileDevice(f"device-{seed}", f"device-seed-{seed}".encode(),
                          ca=ca, processor_mode=processor_mode)
    device.flock.enroll_local_user(template)

    server = WebServer("www.bank.example", ca, f"server-{seed}".encode())
    server.create_account("alice", "correct horse battery staple")
    channel = UntrustedChannel()
    deployment = Deployment(
        ca=ca, device=device, server=server, channel=channel,
        account="alice", user_master=user_master, user_template=template,
        impostor_master=impostor_master,
    )
    if registered:
        client = TrustClient(device, server, channel)
        outcome = client.register("alice", LOGIN_BUTTON_XY, user_master,
                                  np.random.default_rng(seed + 2))
        if not outcome.success:
            raise RuntimeError(f"deployment registration failed: {outcome.reason}")
    return deployment


_cached_deployment = lru_cache(maxsize=4)(build_deployment)


def standard_deployment(seed: int = 42, processor_mode: str = "image",
                        registered: bool = True) -> Deployment:
    """A cached, fully-bound deployment.

    NOTE: cached per process — callers that mutate server/session state
    should use distinct accounts or a fresh channel, or a world of their
    own from :func:`build_deployment`.
    """
    return _cached_deployment(seed, processor_mode, registered)
