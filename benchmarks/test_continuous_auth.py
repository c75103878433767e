"""E9 — Fig. 10: login + continuous per-request authentication costs.

One login (asymmetric: session-key seal + server signature verification)
followed by N post-login requests (symmetric only: HMAC under the session
key).  The asymmetric cost is paid once; the steady-state per-request cost
is what makes per-touch reporting viable.
"""

import numpy as np

from repro.eval import render_table, standard_deployment
from repro.net import TrustClient
from .conftest import emit

BUTTON_XY = (28.0, 80.0)
N_REQUESTS = 20


def test_continuous_auth(benchmark, rng):
    world = standard_deployment(seed=42)
    client = TrustClient(world.device, world.server, world.fresh_channel())

    login_outcome = client.login(world.account, BUTTON_XY, world.user_master,
                                 np.random.default_rng(91))
    assert login_outcome.success, login_outcome.reason
    session = login_outcome.session

    request_costs = []

    def one_request():
        result = client.request(session, risk=0.05, rng=rng)
        assert result.success, result.reason
        request_costs.append(result)
        return result

    benchmark.pedantic(one_request, rounds=N_REQUESTS, iterations=1)

    mean_crypto_ms = float(np.mean(
        [r.crypto_time_s for r in request_costs])) * 1000
    mean_up = float(np.mean([r.bytes_to_server for r in request_costs]))
    mean_down = float(np.mean([r.bytes_to_device for r in request_costs]))
    frame_hash_ms = world.device.flock.display.engine.hash_time_s(
        world.device.flock.display.current_frame) * 1000

    table = render_table(
        ["phase", "messages", "bytes up", "bytes down",
         "modeled crypto"],
        [
            ["login (Fig. 10 steps 1-3)", login_outcome.messages,
             login_outcome.bytes_to_server, login_outcome.bytes_to_device,
             f"{login_outcome.crypto_time_s * 1000:.1f} ms"],
            [f"per request (x{len(request_costs)})", 2,
             f"{mean_up:.0f}", f"{mean_down:.0f}",
             f"{mean_crypto_ms:.3f} ms"],
        ],
        title="E9: Fig. 10 continuous authentication cost profile")
    extra = (f"\nframe-hash engine time per displayed frame: "
             f"{frame_hash_ms:.4f} ms\n"
             f"login/request crypto ratio: "
             f"{login_outcome.crypto_time_s * 1000 / mean_crypto_ms:.0f}x")
    emit("E9_continuous_auth", table + extra)
    world.device.flock.close_session(world.server.domain)

    # Shape assertions.
    assert mean_crypto_ms < 1.0  # steady state is symmetric-only
    assert login_outcome.crypto_time_s * 1000 > 5 * mean_crypto_ms
    state = world.server.session(session.session_id)
    assert state is not None and state.request_count == len(request_costs)
    # Every request logged a frame hash for audit.
    assert len(world.server.frame_audit_log) >= len(request_costs)
