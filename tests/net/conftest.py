"""Shared remote-protocol fixtures.

The CA, server and device each cost an RSA key generation, so the honest
deployment is built once per module and each test gets a fresh channel.
State-mutating tests (registration) use their own accounts.
"""

import numpy as np
import pytest

from repro.crypto import CertificateAuthority, HmacDrbg
from repro.fingerprint import enroll_master, synthesize_master
from repro.net import MobileDevice, TrustClient, UntrustedChannel, WebServer

#: The registration/login button location: over the bottom-centre sensor.
BUTTON_XY = (28.0, 80.0)


@pytest.fixture(scope="module")
def alice_master():
    return synthesize_master("alice-thumb", np.random.default_rng(5))


@pytest.fixture(scope="module")
def eve_master():
    return synthesize_master("eve-thumb", np.random.default_rng(900))


@pytest.fixture(scope="module")
def ca():
    return CertificateAuthority(rng=HmacDrbg(b"ca-net-tests"), key_bits=1024)


@pytest.fixture(scope="module")
def deployment(ca, alice_master):
    """One device (enrolled), one server, one registered account."""
    template = enroll_master(alice_master, np.random.default_rng(6))
    device = MobileDevice("dev-net", b"seed-net", ca=ca)
    device.flock.enroll_local_user(template)
    server = WebServer("www.xyz.com", ca, b"server-net")
    server.create_account("alice", "alice-password")
    outcome = TrustClient(device, server).register(
        "alice", BUTTON_XY, alice_master, np.random.default_rng(10))
    assert outcome.success, outcome.reason
    return device, server


@pytest.fixture()
def channel():
    return UntrustedChannel()
