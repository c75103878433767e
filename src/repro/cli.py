"""Command-line interface: ``python -m repro <command>``.

Commands
--------
demo      run the end-to-end quickstart scenario (registration + login +
          continuous authentication) and print what happened
attacks   run the full adversary library against a fresh deployment and
          print the attack matrix
placement compute the sensor placement for the example users and print
          the density map + capture rates
sensors   print the Table II sensor comparison from the timing model
audit     run a session with a UI-spoofing malware and show the off-line
          frame-hash audit catching it
load      run the multi-tenant fleet simulation (N devices over M shards
          through the dispatch API) and print its metrics report
trace     run an instrumented scenario (one gesture session or a small
          fleet) and export its trace tree + metrics registry
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main"]


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.eval import LOGIN_BUTTON_XY, build_deployment
    from repro.net import TrustClient

    world = build_deployment(seed=args.seed)
    rng = np.random.default_rng(args.seed)
    print(f"deployment ready: device {world.device.device_id!r} bound to "
          f"account {world.account!r} at {world.server.domain}")
    client = TrustClient(world.device, world.server, world.channel)
    outcome = client.login(world.account, LOGIN_BUTTON_XY,
                           world.user_master, rng)
    print(f"login: {outcome.reason}")
    if not outcome.success:
        return 1
    for index in range(args.requests):
        result = client.request(outcome.session, risk=0.0, rng=rng,
                                touch_xy=LOGIN_BUTTON_XY,
                                master=world.user_master,
                                time_s=float(index))
        print(f"  request {index + 1}: {result.reason}")
    return 0


def _cmd_attacks(args: argparse.Namespace) -> int:
    from repro.attacks import (
        certificate_substitution_attack,
        fake_touch_attack,
        key_substitution_attack,
        tamper_risk_attack,
        ui_spoof_attack,
        unlock_attack,
    )
    from repro.core import LocalIdentityManager
    from repro.eval import LOGIN_BUTTON_XY, build_deployment
    from repro.net import WebServer

    world = build_deployment(seed=args.seed)
    rng = np.random.default_rng(args.seed)
    manager = LocalIdentityManager(flock=world.device.flock,
                                   panel=world.device.panel,
                                   unlock_button_xy=LOGIN_BUTTON_XY)
    results = [unlock_attack(manager, world.impostor_master, rng)]
    results.append(tamper_risk_attack(world.device, world.server,
                                      world.account, LOGIN_BUTTON_XY,
                                      world.user_master, rng))
    victim = WebServer("www.cli-victim.example", world.ca, b"cli-victim")
    victim.create_account("alice", "pw")
    results.append(key_substitution_attack(world.device, victim, "alice",
                                           LOGIN_BUTTON_XY,
                                           world.user_master, rng))
    victim2 = WebServer("www.cli-victim2.example", world.ca, b"cli-victim2")
    victim2.create_account("alice", "pw")
    results.append(certificate_substitution_attack(
        world.device, victim2, "alice", LOGIN_BUTTON_XY, world.user_master,
        rng))
    results.append(ui_spoof_attack(world.device, world.server, world.account,
                                   LOGIN_BUTTON_XY, world.user_master, rng))
    results.append(fake_touch_attack(world.device, world.server,
                                     world.account, LOGIN_BUTTON_XY,
                                     world.user_master, rng))
    any_success = False
    for result in results:
        print(" ", result)
        any_success |= result.succeeded
    print("\nverdict:", "ALL ATTACKS BLOCKED" if not any_success
          else "SOME ATTACK SUCCEEDED")
    return 1 if any_success else 0


def _cmd_placement(args: argparse.Namespace) -> int:
    from repro.eval import render_density, render_table
    from repro.hardware import FLOCK_SENSOR_WIDE, greedy_placement
    from repro.touchgen import (SessionConfig, SessionGenerator, density_map,
                                example_users)

    points = []
    for user in example_users():
        trace = SessionGenerator(user).generate(
            SessionConfig(n_interactions=args.touches), seed=args.seed)
        points.append(trace.primary_points())
    all_points = np.vstack(points)
    density = density_map(all_points, 56.0, 94.0)
    print(render_density(
        density_map(all_points, 56.0, 94.0, grid_rows=24, grid_cols=14),
        title="aggregate touch density"))
    layout = greedy_placement(density, 56.0, 94.0, FLOCK_SENSOR_WIDE,
                              args.sensors)
    rows = [[s.label or f"sensor-{i}", f"({s.x_mm:.0f}, {s.y_mm:.0f}) mm",
             f"{s.width_mm:.1f} x {s.height_mm:.1f} mm"]
            for i, s in enumerate(layout.sensors)]
    print(render_table(["sensor", "position", "size"], rows,
                       title=f"\ngreedy placement ({args.sensors} sensors)"))
    print(f"\nscreen area used: {layout.area_fraction():.0%}; "
          f"touch capture rate: "
          f"{layout.capture_rate(all_points, margin_mm=2.0):.0%}")
    return 0


def _cmd_sensors(args: argparse.Namespace) -> int:
    from repro.eval import render_table
    from repro.hardware import FLOCK_SENSOR, TABLE2_SPECS, SensorArray

    rows = []
    for spec in TABLE2_SPECS:
        rows.append([spec.reference, f"{spec.rows} x {spec.cols}",
                     f"{spec.published_response_ms:g} ms",
                     f"{SensorArray(spec).full_frame_response_ms():.1f} ms"])
    rows.append(["this-paper", "256 x 256", "-",
                 f"{SensorArray(FLOCK_SENSOR).full_frame_response_ms():.2f} ms"])
    print(render_table(["ref", "resolution", "published", "modeled"], rows,
                       title="Table II: sensor response times"))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.attacks import ui_spoof_attack
    from repro.eval import LOGIN_BUTTON_XY, build_deployment
    from repro.net import FrameAuditor

    world = build_deployment(seed=args.seed)
    rng = np.random.default_rng(args.seed)
    result = ui_spoof_attack(world.device, world.server, world.account,
                             LOGIN_BUTTON_XY, world.user_master, rng)
    print(" ", result)
    report = FrameAuditor(world.server).audit_account(world.account)
    print(f"\naudit of {report.account!r}: {report.verified_entries}/"
          f"{report.total_entries} frame hashes verified")
    for finding in report.findings:
        print(f"  SUSPICIOUS entry #{finding.entry_index}: frame hash "
              f"{finding.frame_hash.hex()[:16]}... not in reachable-view set")
    return 0 if report.findings else 1


def _cmd_load(args: argparse.Namespace) -> int:
    from repro.runtime import FleetConfig, FleetSimulation

    config = FleetConfig(n_devices=args.devices, n_shards=args.shards,
                         seed=args.seed,
                         requests_per_device=args.requests)
    result = FleetSimulation(config).run()
    print(result.summary)
    if result.metrics.throughput_rps <= 0:
        print("\nFAIL: fleet produced no throughput")
        return 1
    unexpected = result.unexpected_rejections
    if unexpected:
        codes = " ".join(f"{code}={count}"
                         for code, count in sorted(unexpected.items()))
        print(f"\nFAIL: unexpected rejection codes: {codes}")
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (Instrumentation, render_metrics_text,
                           render_trace_json, render_trace_text)

    obs = Instrumentation.live()
    if args.scenario == "gesture":
        from repro.core import TrustCoordinator
        from repro.eval import LOGIN_BUTTON_XY, build_deployment
        from repro.touchgen import SessionConfig, SessionGenerator, example_users

        world = build_deployment(seed=args.seed)
        rng = np.random.default_rng(args.seed)
        session = SessionGenerator(example_users()[0]).generate(
            SessionConfig(n_interactions=args.gestures), seed=args.seed)
        # The server predates the bundle, so hand it the tracer directly;
        # the coordinator wires the rest.
        world.server.obs = obs
        coordinator = TrustCoordinator(world.device, world.server,
                                       world.channel, world.account,
                                       login_button_xy=LOGIN_BUTTON_XY,
                                       obs=obs)
        coordinator.run_session(
            session.gestures,
            {world.user_master.finger_id: world.user_master},
            rng, login_master=world.user_master)
    else:
        from repro.runtime import FleetConfig, FleetSimulation

        config = FleetConfig(n_devices=args.devices, n_shards=args.shards,
                             seed=args.seed,
                             requests_per_device=args.requests)
        FleetSimulation(config, obs=obs).run()
    if args.format == "json":
        print(render_trace_json(obs.tracer))
    else:
        print(render_trace_text(obs.tracer))
        print()
        print(render_metrics_text(obs.metrics))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TRUST biometric touch-display reproduction")
    parser.add_argument("--seed", type=int, default=42,
                        help="deployment seed (default 42)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="end-to-end demo")
    demo.add_argument("--requests", type=int, default=5)
    demo.set_defaults(func=_cmd_demo)

    attacks = subparsers.add_parser("attacks", help="run the attack matrix")
    attacks.set_defaults(func=_cmd_attacks)

    placement = subparsers.add_parser("placement",
                                      help="sensor placement design")
    placement.add_argument("--sensors", type=int, default=4)
    placement.add_argument("--touches", type=int, default=400)
    placement.set_defaults(func=_cmd_placement)

    sensors = subparsers.add_parser("sensors", help="Table II comparison")
    sensors.set_defaults(func=_cmd_sensors)

    audit = subparsers.add_parser("audit", help="frame-hash audit demo")
    audit.set_defaults(func=_cmd_audit)

    load = subparsers.add_parser("load", help="fleet load simulation")
    load.add_argument("--devices", type=int, default=1000,
                      help="fleet size (default 1000)")
    load.add_argument("--shards", type=int, default=4,
                      help="web-server replicas (default 4)")
    load.add_argument("--requests", type=int, default=3,
                      help="content requests per device (default 3)")
    load.set_defaults(func=_cmd_load)

    trace = subparsers.add_parser(
        "trace", help="export a scenario's trace tree")
    trace.add_argument("--scenario", choices=("gesture", "fleet"),
                       default="gesture",
                       help="what to instrument (default gesture)")
    trace.add_argument("--format", choices=("text", "json"), default="text",
                       help="export format (default text)")
    trace.add_argument("--gestures", type=int, default=8,
                       help="gestures in the gesture scenario (default 8)")
    trace.add_argument("--devices", type=int, default=3,
                       help="fleet scenario size (default 3)")
    trace.add_argument("--shards", type=int, default=2,
                       help="fleet scenario replicas (default 2)")
    trace.add_argument("--requests", type=int, default=2,
                       help="fleet requests per device (default 2)")
    trace.set_defaults(func=_cmd_trace)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
