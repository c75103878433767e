"""The trusted boundary: what the host may ask FLock for, and what it never
gets back.

FLock's public methods are the only operations the untrusted host can
request.  No return value carries a private key, a session key or the
enrolled template (the identity-transfer bundle carries them sealed under
the receiving device's key), and a request naming a domain FLock is not
bound to is refused without changing what FLock holds.
"""

import numpy as np
import pytest

from repro.crypto import (
    CertificateAuthority,
    HmacDrbg,
    RsaPublicKey,
    generate_keypair,
)
from repro.fingerprint import enroll_master, synthesize_master
from repro.flock import (
    FlockError,
    FlockModule,
    Frame,
    PublicServiceView,
    StorageError,
)
from repro.hardware import (
    FLOCK_SENSOR,
    PlacedSensor,
    SensorLayout,
    TouchEvent,
    TouchPanel,
)

DOMAIN = "www.host.example"
KEY_BITS = 512


@pytest.fixture(scope="module")
def master():
    return synthesize_master("host-f", np.random.default_rng(5))


@pytest.fixture(scope="module")
def template(master):
    return enroll_master(master, np.random.default_rng(6))


@pytest.fixture(scope="module")
def ca():
    return CertificateAuthority(rng=HmacDrbg(b"ca-host"), key_bits=KEY_BITS)


@pytest.fixture(scope="module")
def server_key():
    return generate_keypair(HmacDrbg(b"host-server"), bits=KEY_BITS)


@pytest.fixture()
def flock(template, ca, server_key):
    """An enrolled module bound to ``DOMAIN``."""
    layout = SensorLayout(56, 94, [PlacedSensor(FLOCK_SENSOR, 20, 60)])
    module = FlockModule("host-dev", b"host-seed", layout,
                         key_bits=KEY_BITS)
    module.enroll_local_user(template)
    module.install_ca(ca.public_key)
    cert = ca.issue(DOMAIN, "web-server", server_key.public_key)
    module.begin_service_binding(DOMAIN, "acct", cert, now=0)
    module.complete_service_binding(DOMAIN)
    return module


def _secrets(flock, template):
    """Every secret FLock holds, in each form a return value could carry."""
    numbers = []
    for record in flock.flash.all_records():
        key = record.key_pair
        numbers += [key.d, key.p, key.q]
    device_key = flock._device_key
    numbers += [device_key.d, device_key.p, device_key.q]
    secrets = list(flock._session_keys.values())
    secrets.append(template.to_bytes())
    for number in numbers:
        secrets.append(number.to_bytes((number.bit_length() + 7) // 8, "big"))
        secrets.append(str(number).encode())
        secrets.append(f"{number:x}".encode())
    return secrets


def _exposed(value):
    """The bytes a host learns from one return value."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, RsaPublicKey):
        return value.to_bytes()
    if isinstance(value, PublicServiceView):
        return (value.domain.encode() + value.account.encode()
                + value.public_key.to_bytes())
    return repr(value).encode()


def _bind_second(flock, world):
    cert = world["ca"].issue("www.second.example", "web-server",
                             world["server_key"].public_key)
    return flock.begin_service_binding("www.second.example", "b", cert,
                                       now=0)


def _complete_second(flock, world):
    _bind_second(flock, world)
    return flock.complete_service_binding("www.second.example")


def _session_mac(flock, world):
    flock.open_session(DOMAIN)
    return flock.session_mac(DOMAIN, b"request")


def _touch(flock, world):
    touch = TouchPanel().locate(TouchEvent(time_s=0.0, x_mm=26.0, y_mm=65.0,
                                           finger_id="host-f"))
    return flock.handle_touch(touch, world["master"],
                              np.random.default_rng(0))


def _export(flock, world):
    new_device = generate_keypair(HmacDrbg(b"host-new"), bits=KEY_BITS)
    return flock.export_identity(new_device.public_key,
                                 authorizing_touch_verified=True)


HOST_CALLS = {
    "public-key": lambda f, w: f.public_key,
    "begin-binding": _bind_second,
    "complete-binding": _complete_second,
    "sign-as-device": lambda f, w: f.sign_as_device(b"m"),
    "sign-for-service": lambda f, w: f.sign_for_service(DOMAIN, b"m"),
    "seal-for-server": lambda f, w: f.seal_for_server(DOMAIN, b"m"),
    "open-session": lambda f, w: f.open_session(DOMAIN),
    "session-mac": _session_mac,
    "show-frame": lambda f, w: f.show_frame(Frame(b"<html>p</html>")),
    "touch": _touch,
    "export-identity": _export,
}


@pytest.mark.parametrize("call", sorted(HOST_CALLS))
def test_no_host_call_returns_a_secret(flock, master, template, ca,
                                       server_key, call):
    world = {"ca": ca, "server_key": server_key, "master": master}
    result = HOST_CALLS[call](flock, world)
    exposed = _exposed(result)
    assert exposed
    for secret in _secrets(flock, template):
        assert secret not in exposed


UNBOUND = "www.unbound.example"

UNBOUND_CALLS = {
    "sign-for-service": (lambda f: f.sign_for_service(UNBOUND, b"m"),
                         StorageError, "no record"),
    "seal-for-server": (lambda f: f.seal_for_server(UNBOUND, b"m"),
                        StorageError, "no record"),
    "verify-server-signature": (
        lambda f: f.verify_server_signature(UNBOUND, b"m", b"s"),
        StorageError, "no record"),
    "open-session": (lambda f: f.open_session(UNBOUND),
                     StorageError, "no record"),
    "unbind": (lambda f: f.unbind_service(UNBOUND),
               StorageError, "no record"),
    "session-mac": (lambda f: f.session_mac(UNBOUND, b"m"),
                    FlockError, "no open session"),
    "verify-session-mac": (
        lambda f: f.verify_session_mac(UNBOUND, b"m", b"t" * 32),
        FlockError, "no open session"),
    "begin-challenge": (lambda f: f.begin_challenge(UNBOUND, b"nonce"),
                        FlockError, "no open session"),
    "attest-challenge": (lambda f: f.attest_challenge(UNBOUND),
                         FlockError, "no pending challenge"),
}


@pytest.mark.parametrize("call", sorted(UNBOUND_CALLS))
def test_unbound_domain_refused_without_side_effects(flock, call):
    request, error, message = UNBOUND_CALLS[call]
    with pytest.raises(error, match=message):
        request(flock)
    assert [record.domain for record in flock.flash.all_records()] == [DOMAIN]
    assert not flock.has_session(UNBOUND)
