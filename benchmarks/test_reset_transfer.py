"""E13 — section IV-B: identity reset and identity transfer.

Transfer: a fingerprint-authorized encrypted bundle moves every binding of
the user's old phone to a new one, which can immediately log in — with no
server-side change at all — while the old phone is retired.  Reset: after
a device is lost, the password fallback severs the key binding, and the
device that holds it can no longer log in until it re-registers.

The old phone is a device of this experiment's own: the transfer retires
its records, and the harness's shared deployment device stays bound for
the experiments that reuse it.
"""

import numpy as np

from repro.eval import LOGIN_BUTTON_XY, render_table, standard_deployment
from repro.net import (
    MobileDevice,
    TrustClient,
    UntrustedChannel,
    WebServer,
    transfer_identity,
)
from .conftest import emit


def test_reset_transfer(benchmark, rng, monkeypatch):
    world = standard_deployment(seed=42)
    server = WebServer("www.e13.example", world.ca, b"e13-server")
    server.create_account("alice", "fallback-password")
    channel = UntrustedChannel()
    old_device = MobileDevice("alice-old-phone", b"e13-old-device",
                              ca=world.ca)
    old_device.flock.enroll_local_user(world.user_template)
    outcome = TrustClient(old_device, server, channel).register(
        "alice", LOGIN_BUTTON_XY, world.user_master, rng)
    assert outcome.success, outcome.reason
    # A second binding, so the transfer moves more than one.  Steps beyond
    # register/transfer/login/rebind touch with a generator of their own:
    # the session ``rng`` goes on to the experiments that run after this
    # one, and their results depend on what this one draws from it.
    own_rng = np.random.default_rng(13)
    mail = WebServer("mail.e13.example", world.ca, b"e13-mail")
    mail.create_account("alice", "mail-password")
    outcome = TrustClient(old_device, mail, channel).register(
        "alice", LOGIN_BUTTON_XY, world.user_master, own_rng)
    assert outcome.success, outcome.reason

    rows = []

    # ---- transfer --------------------------------------------------------
    new_device = MobileDevice("alice-new-phone", b"e13-new-device",
                              ca=world.ca)
    # Measure the bundle this transfer delivers, not a second export.
    bundles = []
    import_identity = new_device.flock.import_identity

    def receive(bundle):
        bundles.append(bundle)
        return import_identity(bundle)

    monkeypatch.setattr(new_device.flock, "import_identity", receive)

    def do_transfer():
        return transfer_identity(old_device, new_device, LOGIN_BUTTON_XY,
                                 world.user_master, rng)

    transferred = benchmark.pedantic(do_transfer, rounds=1, iterations=1)
    rows.append(["domains transferred", len(transferred)])
    rows.append(["encrypted bundle size", f"{len(bundles[0])} B"])
    old_retired = not any(old_device.flock.flash.has_record(domain)
                          for domain in transferred)
    rows.append(["old device retired by transfer", old_retired])

    new_client = TrustClient(new_device, server, channel)
    new_login = new_client.login("alice", LOGIN_BUTTON_XY, world.user_master,
                                 rng)
    rows.append(["new device logs in after transfer", new_login.reason])
    new_device.flock.close_session(server.domain)

    # ---- reset -----------------------------------------------------------
    server.reset_identity("alice", "fallback-password")
    binding_removed = server.account_key("alice") is None
    rows.append(["binding removed by password reset", binding_removed])
    reset_login = new_client.login("alice", LOGIN_BUTTON_XY,
                                   world.user_master, own_rng)
    rows.append(["bound device login after reset", reset_login.reason])

    # Rebind from the new device (fresh Fig. 9 run).
    new_device.flock.unbind_service(server.domain)
    rebind = new_client.register("alice", LOGIN_BUTTON_XY, world.user_master,
                                 rng)
    rows.append(["re-registration from new device", rebind.reason])

    table = render_table(["step", "result"], rows,
                         title="E13: identity transfer + identity reset")
    emit("E13_reset_transfer", table)

    # Shape assertions.
    assert "www.e13.example" in transferred
    assert new_login.success
    assert binding_removed
    assert not reset_login.success  # reset really severed the binding
    assert rebind.success
    assert "mail.e13.example" in transferred and old_retired
