"""The three benchmark workloads.

Every workload makes its inputs from the seed, has a ``setup`` (timed as
``setup_s``) and runs rounds.  A round returns the host-time windows it
measured, an output that a traced replay must reproduce exactly, the
output checks it failed, and counts for the per-layer table.  Which
workload stresses which layer, and why, is in README.md.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import ROOT
from .layers import CONTINUOUS, EXPECTED_OUTCOMES, ONBOARD, STEADY

__all__ = ["Round", "FleetWorkload", "ContinuousWorkload", "WORKLOADS"]

clock = time.perf_counter

#: Stride between seeds derived from one run seed (warm-up, extra
#: set-ups, later rounds), so they never replay the measured inputs.
SEED_STRIDE = 1_000_003


def derive(seed: int, stream: int) -> int:
    """Seed of input stream ``stream`` of the run seeded ``seed``."""
    return seed + SEED_STRIDE * stream


@dataclass
class Round:
    """What one round measured and produced."""

    windows: list[tuple[float, float]]
    output: object
    errors: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)


class _Workload:
    name = ""
    #: Operation kinds counted as this workload's ops.
    op_kinds: tuple[str, ...] = ()
    min_rounds = 1
    #: Op outcomes that are not failures.
    expected = EXPECTED_OUTCOMES
    #: Reported-only percentiles: op group -> tail quantile.
    tails: dict[str, float] = {}

    def timed(self, op) -> str | None:
        """The op group a finished op is timed under, if any."""
        return None

    def counted(self, ops) -> list:
        """This workload's ops among ``ops``: the ones its latency times."""
        return [op for op in ops if op[0] in self.op_kinds]

    def failed(self, ops) -> int:
        """Operations whose outcome is not an expected decision."""
        return sum(1 for *_, outcome in ops if outcome not in self.expected)


class FleetWorkload(_Workload):
    """A seeded fleet (``FleetSimulation``) run.

    ``op_kinds`` names the client calls that are this workload's ops: the
    calls it exists to measure, whose median is its headline latency.
    """

    tails = {"register": 0.95, "login": 0.95, "request": 0.99,
             "challenge": 0.95}

    def __init__(self, name: str, op_kinds: tuple[str, ...],
                 **config) -> None:
        from repro.runtime import FleetConfig
        self.name = name
        self.op_kinds = op_kinds
        self.config = FleetConfig(**config)

    def timed(self, op) -> str | None:
        return op[0]

    def warm_up(self, seed: int) -> None:
        from repro.runtime import FleetSimulation
        FleetSimulation(replace(self.config, seed=seed,
                                n_devices=min(20, self.config.n_devices))).run()

    def setup(self, seed: int):
        from repro.runtime import FleetSimulation
        return FleetSimulation(replace(self.config, seed=seed))

    def run_round(self, sim, seed: int, index: int) -> Round:
        if index > 0:
            sim = self.setup(derive(seed, 100 + index))
        start = clock()
        result = sim.run()
        end = clock()
        counts = _rejection_counts(result.pool.rejection_totals())
        counts["active_sessions_end"] = sum(
            shard.active_sessions for shard in result.pool.shards.values())
        for kind, hits, misses, _ in result.cache.stats():
            counts[f"cache.hits.{kind}"] = hits
            counts[f"cache.lookups.{kind}"] = hits + misses
        return Round([(start, end)], (result.summary, result.trace),
                     self._check(result), counts)

    @staticmethod
    def _check(result) -> list[str]:
        from repro.runtime import FleetConfig
        errors = []
        if result.unexpected_rejections:
            errors.append(f"unexpected rejections "
                          f"{dict(result.unexpected_rejections)}")
        registered = result.metrics.count("register", "ok")
        if registered < 0.99 * result.config.n_devices:
            errors.append(f"only {registered} of {result.config.n_devices} "
                          f"registrations ok")
        # The default fleet is the committed golden report.
        if result.config == FleetConfig() \
                and result.summary != _golden_fleet_summary():
            errors.append("summary differs from the committed "
                          "benchmarks/results/fleet_load.txt")
        return errors


def _rejection_counts(rejections: Counter) -> dict[str, float]:
    expected = rejections["risk-too-high"]
    return {"rejections.risk-too-high": expected,
            "rejections.other": sum(rejections.values()) - expected}


def _golden_fleet_summary() -> str:
    """The summary block of the committed default-fleet report."""
    text = (ROOT / "benchmarks" / "results" / "fleet_load.txt").read_text()
    return text.split("\n\nreplay check:")[0]


class _Hands:
    """``masters`` mapping that hands over to the impostor mid-session."""

    def __init__(self, genuine, impostor, hijack_after: int | None) -> None:
        self.genuine = genuine
        self.impostor = impostor
        self.hijack_after = hijack_after
        self.lookups = 0

    def __getitem__(self, finger_id):
        self.lookups += 1
        if self.hijack_after is None or self.lookups <= self.hijack_after:
            return self.genuine
        return self.impostor


class ContinuousWorkload(_Workload):
    """Image-mode continuous authentication; an op is one captured touch.

    Round ``r`` is one session of ``gestures`` gestures: rounds cycle
    through the three example users, and every fourth session is taken
    over by the impostor halfway.  Small rounds keep the time budget full
    whatever the seed's sessions cost.  Only touches that land on a sensor
    run capture, quality and match; the rest cost about 0.1 ms and would
    put the median on a path that measures nothing of the pipeline.
    """

    name = CONTINUOUS
    min_rounds = 4  # one hijacked session per run at least
    #: The harness's standard deployment: its keys and enrolled finger are
    #: the system under test, fixed; the seed drives the sessions.  (The
    #: enrolled finger alone moves match cost several-fold.)
    DEPLOYMENT_SEED = 42
    tails = {"captured_touch": 0.95}

    def __init__(self, gestures: int = 120) -> None:
        self.gestures = gestures

    def timed(self, op) -> str | None:
        """Captured touches: ``process_gesture`` alone, when it captured."""
        kind, _, _, outcome = op
        if kind == "gesture" and outcome != "not-covered":
            return "captured_touch"
        return None

    def warm_up(self, seed: int) -> None:
        self.run_round(self.setup(seed), seed, 0, min(20, self.gestures))

    def setup(self, seed: int):
        from repro.eval import harness
        # The harness memoizes deployments per process; a set-up must
        # build one.
        harness._cached_deployment.cache_clear()
        return harness.standard_deployment(self.DEPLOYMENT_SEED, "image")

    def run_round(self, deployment, seed: int, index: int,
                  gestures: int | None = None) -> Round:
        from repro.core import TrustCoordinator
        from repro.touchgen import SessionConfig, SessionGenerator, \
            example_users
        gestures = gestures or self.gestures
        hijack_after = gestures // 2 if index % 4 == 3 else None
        trace = SessionGenerator(example_users()[index % 4 % 3]).generate(
            SessionConfig(n_interactions=gestures), seed=derive(seed, index))
        hands = _Hands(deployment.user_master, deployment.impostor_master,
                       hijack_after)
        server = deployment.server
        coordinator = TrustCoordinator(deployment.device, server,
                                       deployment.fresh_channel(),
                                       deployment.account)
        rng = np.random.default_rng((seed, index))
        rejections = Counter(server.rejections)
        start = clock()
        report = coordinator.run_session(trace.gestures, hands, rng,
                                         login_master=deployment.user_master)
        end = clock()
        errors = []
        if hijack_after is None:
            if not report.survived \
                    or report.gestures_processed != len(trace.gestures):
                errors.append(f"genuine session {index} ended "
                              f"{report.termination_reason or 'early'} at "
                              f"gesture {report.gestures_processed}")
        elif (report.termination_reason != "risk-too-high"
              or report.gestures_processed <= hijack_after):
            errors.append(f"hijacked session {index} ended "
                          f"{report.termination_reason or 'alive'} at "
                          f"gesture {report.gestures_processed}")
        counts = _rejection_counts(Counter(server.rejections) - rejections)
        counts["active_sessions_end"] = server.active_sessions
        output = (report.survived, report.termination_reason,
                  report.gestures_processed, report.risk_series,
                  report.requests_ok, report.requests_failed,
                  report.challenges_answered, report.challenges_failed)
        return Round([(start, end)], output, errors, counts)

    def counted(self, ops) -> list:
        """The captured touches' ``process_gesture`` calls."""
        return [op for op in ops if self.timed(op)]

    def failed(self, ops) -> int:
        """Gestures that raised, and protocol calls that failed."""
        return sum(1 for kind, _, _, outcome in ops
                   if (outcome == "error" if kind == "gesture"
                       else outcome not in self.expected))


WORKLOADS = {
    ONBOARD: lambda: FleetWorkload(ONBOARD, ("register", "login")),
    STEADY: lambda: FleetWorkload(STEADY, ("request",), n_devices=200,
                                  requests_per_device=300,
                                  challenge_fraction=0.005,
                                  hijack_fraction=0.0),
    CONTINUOUS: ContinuousWorkload,
}
