"""E10 — section IV-B security analysis: the attack matrix.

Runs every attack scenario of the adversary library against TRUST and,
where the attack translates, against the conventional cookie-session
baseline.  The regenerated artifact is the table the security analysis
argues in prose: which attacks succeed, which are blocked, and which leave
an audit trail.  Quality evasion is not a row: it is a way of touching,
not a scenario, and A1 and E6 measure it (``repro.attacks.evasive_tap``).
"""

import numpy as np

from repro.attacks import (
    certificate_substitution_attack,
    fake_touch_attack,
    key_substitution_attack,
    replay_cookie_request,
    replay_trust_traffic,
    takeover_attack,
    tamper_risk_attack,
    ui_spoof_attack,
    unlock_attack,
)
from repro.baselines import CookieWebServer
from repro.core import LocalIdentityManager
from repro.eval import LOGIN_BUTTON_XY, render_table, standard_deployment
from repro.net import TrustClient, WebServer
from repro.touchgen import UserTouchModel
from .conftest import emit


def _run_all_attacks(world, rng):
    results = []

    # Physical attacks need a local manager.
    manager = LocalIdentityManager(flock=world.device.flock,
                                   panel=world.device.panel,
                                   unlock_button_xy=LOGIN_BUTTON_XY)
    results.append(unlock_attack(manager, world.impostor_master, rng))
    for attempt in range(8):
        if manager.try_unlock(world.user_master, rng, time_s=attempt * 0.4):
            break
    behaviour = UserTouchModel("eve", world.impostor_master.finger_id)
    results.append(takeover_attack(manager, world.impostor_master,
                                   behaviour, rng, max_touches=200))

    # Channel attacks: record honest traffic first, then replay.
    channel = world.fresh_channel()
    client = TrustClient(world.device, world.server, channel)
    outcome = client.login(world.account, LOGIN_BUTTON_XY, world.user_master,
                           rng)
    assert outcome.success, outcome.reason
    for _ in range(3):
        client.request(outcome.session, risk=0.0, rng=rng)
    results.append(replay_trust_traffic(world.server, channel,
                                        "page-request"))
    world.device.flock.close_session(world.server.domain)

    results.append(tamper_risk_attack(world.device, world.server,
                                      world.account, LOGIN_BUTTON_XY,
                                      world.user_master, rng))
    victim = WebServer("www.victim-e10.example", world.ca, b"victim-e10")
    victim.create_account("alice", "pw")
    results.append(key_substitution_attack(world.device, victim, "alice",
                                           LOGIN_BUTTON_XY,
                                           world.user_master, rng))
    victim2 = WebServer("www.victim2-e10.example", world.ca, b"victim2-e10")
    victim2.create_account("alice", "pw")
    results.append(certificate_substitution_attack(
        world.device, victim2, "alice", LOGIN_BUTTON_XY,
        world.user_master, rng))

    results.append(ui_spoof_attack(world.device, world.server,
                                   world.account, LOGIN_BUTTON_XY,
                                   world.user_master, rng))
    results.append(fake_touch_attack(world.device, world.server,
                                     world.account, LOGIN_BUTTON_XY,
                                     world.user_master, rng))
    return results


def test_attack_resistance(benchmark, rng):
    world = standard_deployment(seed=42)
    results = benchmark.pedantic(_run_all_attacks, args=(world, rng),
                                 rounds=1, iterations=1)

    # The same adversary goals against the cookie baseline.
    legacy = CookieWebServer("www.legacy.example", b"legacy-e10")
    legacy.create_account("alice", "password123")
    cookie = legacy.login("alice", "password123").fields["cookie"]
    cookie_replay = replay_cookie_request(legacy, cookie)

    rows = [
        [r.name, "yes" if r.succeeded else "no",
         "yes" if r.detected else "no", r.detail[:60]]
        for r in results
    ]
    rows.append([cookie_replay.name + " (baseline)",
                 "yes" if cookie_replay.succeeded else "no",
                 "yes" if cookie_replay.detected else "no",
                 cookie_replay.detail[:60]])
    table = render_table(
        ["attack", "succeeded", "detected", "detail"],
        rows, title="E10: attack matrix — TRUST vs conventional cookies")
    emit("E10_attack_resistance", table)

    # Shape assertions: every attack on TRUST fails; the cookie replay
    # against the baseline succeeds silently.
    for result in results:
        assert not result.succeeded, result.name
    assert cookie_replay.succeeded and not cookie_replay.detected
