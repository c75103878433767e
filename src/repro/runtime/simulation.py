"""The multi-tenant fleet simulation: thousands of devices, N shards.

``FleetSimulation`` wires every runtime component together: a
:class:`~repro.runtime.scheduler.EventLoop` drives per-device interaction
chains (register → login → continuous requests, with challenge and
termination branches) against a :class:`~repro.runtime.dispatcher.ServerPool`
whose shards share one :class:`~repro.runtime.cache.VerificationCache`.
Every inbound message goes through ``WebServer.dispatch``, the single
inbound surface.

Latency model: an interaction arriving at virtual time ``t`` waits in its
shard's FIFO :class:`~repro.runtime.scheduler.ServiceQueue`, is served for
a modeled per-endpoint service time, and completes one network RTT later;
``latency = queue wait + service + RTT``.  The protocol itself (all
signatures, MACs, nonces — real computations) runs at event-execution
time, so server state always mutates in arrival order.

Determinism: a run is a pure function of :class:`FleetConfig` — same
config ⇒ byte-identical event trace and summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.crypto import CertificateAuthority, HmacDrbg
from repro.eval import render_table
from repro.net import TrustClient, UntrustedChannel
from repro.obs import Instrumentation, MetricsRegistry, NOOP

from .cache import VerificationCache
from .dispatcher import ServerPool
from .fleet import (
    BUTTON_XY,
    KEY_BITS,
    NETWORK_RTT_S,
    THINK_TIME_S,
    DeviceActor,
    DeviceFactory,
    FleetConfig,
    draw_risk,
)
from .metrics import FleetMetrics
from .scheduler import EventLoop, EventTrace, ServiceQueue

__all__ = ["EXPECTED_REJECTIONS", "SERVICE_TIME_S", "FleetResult",
           "FleetSimulation"]

#: Modeled shard-side service time per dispatched endpoint (seconds):
#: registration and login pay an RSA private-key operation, post-login
#: traffic is symmetric-crypto cheap (the paper's scalability pitch).
SERVICE_TIME_S = {
    "register": 0.020,
    "login": 0.015,
    "request": 0.004,
    "challenge": 0.006,
}

#: Rejection codes the standard workload is expected to produce: the
#: hijack fraction reports breach-level risk, which the server answers by
#: terminating the session.  Anything else is a scenario bug.
EXPECTED_REJECTIONS = frozenset({"risk-too-high"})


@dataclass
class FleetResult:
    """Everything one fleet run produced."""

    config: FleetConfig
    metrics: FleetMetrics
    #: Executed ``(virtual_time, label)`` events — the replay witness.
    trace: EventTrace
    #: Deterministic human-readable report.
    summary: str
    cache: VerificationCache
    pool: ServerPool

    @property
    def unexpected_rejections(self) -> dict[str, int]:
        """Rejection codes outside the scenario's expected set."""
        return {code: count
                for code, count in sorted(self.pool.rejection_totals().items())
                if code not in EXPECTED_REJECTIONS}


class FleetSimulation:
    """One seeded discrete-event run of a device fleet against a pool."""

    def __init__(self, config: FleetConfig,
                 obs: Instrumentation | None = None) -> None:
        self.config = config
        self.obs = obs if obs is not None else NOOP
        # One registry for the whole run: fleet accounting and the shared
        # verification cache record into the same instrument set an
        # injected live bundle exports from.
        registry = (self.obs.metrics
                    if isinstance(self.obs.metrics, MetricsRegistry)
                    else MetricsRegistry())
        self.ca = CertificateAuthority(
            name="fleet-ca",
            rng=HmacDrbg(b"fleet-ca-root", personalization=config.domain.encode()),
            key_bits=KEY_BITS)
        self.cache = VerificationCache(registry=registry)
        self.pool = ServerPool(
            config.domain, self.ca, b"fleet-service-key",
            config.n_shards, key_bits=KEY_BITS,
            verification_cache=self.cache, obs=obs)
        self.factory = DeviceFactory(config, self.ca)
        self.loop = loop = EventLoop(tracer=self.obs.tracer)
        # Spans opened inside events get virtual-clock timestamps, which
        # keeps traced fleet runs as replayable as untraced ones.  The
        # clock holds the loop itself, so it still reads once run() has
        # let go of the loop.
        self.obs.tracer.bind_clock(lambda: loop.now)
        self.metrics = FleetMetrics(registry=registry)
        self._queues = {shard_id: ServiceQueue()
                        for shard_id in self.pool.shard_ids}
        self.actors: list[DeviceActor] = []
        for index in range(config.n_devices):
            account = f"user-{index:05d}"
            self.pool.create_account(account, "fleet-reset-phrase")
            device = self.factory.build(index)
            if self.obs.enabled:
                device.flock.obs = self.obs
            channel = UntrustedChannel(keep_log=False)
            client = TrustClient(device, self.pool.shard_for(account),
                                 channel, obs=self.obs)
            self.actors.append(DeviceActor(
                index=index, account=account, device=device, client=client,
                rng=np.random.default_rng((config.seed, 6, index)),
                labels={op: f"{account} {op}" for op in SERVICE_TIME_S}))

    # ------------------------------------------------------------- lifecycle
    def run(self) -> FleetResult:
        """Execute the whole fleet scenario once and summarize it.

        The result takes the pool, the cache, the metrics and the trace.
        The simulation then lets go of its devices, factory, queues and
        loop, so a finished run keeps only what the result holds, and a
        second call raises ``RuntimeError``.
        """
        if self.loop is None:
            raise RuntimeError("a FleetSimulation runs once; build a new "
                               "one for another run")
        for actor in self.actors:
            start = actor.rng.uniform(0.0, self.config.ramp_s)
            self.loop.schedule(start, actor.labels["register"],
                               partial(self._step, actor, "register"))
        self.loop.run()
        for actor in self.actors:
            channel = actor.client.channel
            self.metrics.bytes_to_server += channel.bytes_to_server
            self.metrics.bytes_to_device += channel.bytes_to_device
            self.metrics.messages += channel.message_count
        result = FleetResult(
            config=self.config, metrics=self.metrics,
            trace=self.loop.trace, summary=self._summary(),
            cache=self.cache, pool=self.pool)
        self.actors = self.factory = self._queues = self.loop = None
        self.pool = self.cache = self.metrics = None
        return result

    # ------------------------------------------------------------- one event
    def _step(self, actor: DeviceActor, op: str) -> None:
        """Run one device interaction and schedule the actor's next one."""
        config = self.config
        shard_id = self.pool.router.route(actor.account)
        actor.client.server = self.pool.shards[shard_id]
        t = self.loop.now
        now = int(t)
        if op == "register":
            outcome = actor.client.register(
                actor.account, BUTTON_XY, self.factory.master, actor.rng,
                now=now, time_s=t)
        elif op == "login":
            outcome = actor.client.login(
                actor.account, BUTTON_XY, self.factory.master, actor.rng,
                risk=0.3 * actor.rng.random(), now=now, time_s=t)
        elif op == "request":
            outcome = actor.client.request(
                actor.session, draw_risk(actor.rng, config), actor.rng,
                now=now)
        elif op == "challenge":
            outcome = actor.client.answer_challenge(
                actor.session, BUTTON_XY, self.factory.master, actor.rng,
                now=now, time_s=t)
        else:
            raise ValueError(f"unknown fleet op {op!r}")

        start, completion = self._queues[shard_id].begin(
            t, SERVICE_TIME_S[op])
        finished = completion + NETWORK_RTT_S
        self.metrics.record(op, outcome.reason, finished - t, finished)
        self._schedule_next(actor, op, outcome, finished)

    def _schedule_next(self, actor: DeviceActor, op: str, outcome,
                       finished: float) -> None:
        config = self.config
        next_op = None
        if op == "register":
            next_op = "login" if outcome.success else None
        elif op == "login":
            if outcome.success:
                actor.session = outcome.session
                if actor.requests_done < config.requests_per_device:
                    next_op = "request"
        elif op == "request":
            if outcome.success:
                actor.requests_done += 1
                if actor.requests_done < config.requests_per_device:
                    next_op = "request"
            elif outcome.challenged:
                next_op = "challenge"
        elif op == "challenge":
            if outcome.success:
                # The answered challenge satisfies the withheld request.
                actor.requests_done += 1
                if actor.requests_done < config.requests_per_device:
                    next_op = "request"
        if next_op is None:
            return
        think = actor.rng.exponential(THINK_TIME_S)
        self.loop.schedule(finished + think, actor.labels[next_op],
                           partial(self._step, actor, next_op))

    # --------------------------------------------------------------- report
    def _summary(self) -> str:
        """Deterministic text report of the finished run."""
        config, metrics = self.config, self.metrics
        rejections = self.pool.rejection_totals()
        parts = [f"TRUST fleet load: {config.n_devices} devices over "
                 f"{config.n_shards} shards (modeled processors)"]

        overview = [
            ["devices", config.n_devices],
            ["shards", config.n_shards],
            ["interactions", metrics.interactions],
            ["simulated duration", f"{metrics.horizon_s:.3f} s"],
            ["throughput", f"{metrics.throughput_rps:.2f} req/s"],
            ["registrations ok", metrics.count("register", "ok")],
            ["logins ok", metrics.count("login", "ok")],
            ["requests ok", metrics.count("request", "ok")],
            ["challenges passed", metrics.count("challenge", "ok")],
            ["sessions terminated",
             metrics.count("request", "risk-too-high")],
            ["rejections", " ".join(f"{code}={count}" for code, count
                                    in sorted(rejections.items())) or "-"],
            ["messages carried", metrics.messages],
            ["bytes to server", metrics.bytes_to_server],
            ["bytes to device", metrics.bytes_to_device],
        ]
        parts.append(render_table(["metric", "value"], overview,
                                  title="\nfleet overview"))

        latency_rows = [[op, count, f"{mean * 1e3:.2f}", f"{p50 * 1e3:.2f}",
                         f"{p99 * 1e3:.2f}"]
                        for op, count, mean, p50, p99
                        in metrics.latency_rows()]
        parts.append(render_table(
            ["op", "count", "mean ms", "p50 ms", "p99 ms"], latency_rows,
            title="\nend-to-end latency (queue + service + RTT)"))

        cache_rows = [[kind, hits, misses, f"{rate:.1%}"]
                      for kind, hits, misses, rate in self.cache.stats()]
        parts.append(render_table(
            ["verification", "hits", "misses", "hit rate"],
            cache_rows or [["-", 0, 0, "0.0%"]],
            title="\nverification cache"))

        accounts = self.pool.account_totals()
        shard_rows = [[shard_id, accounts[shard_id],
                       self.pool.shards[shard_id].dispatch_calls.total(),
                       f"{self._queues[shard_id].utilization(metrics.horizon_s):.1%}"]
                      for shard_id in self.pool.shard_ids]
        parts.append(render_table(
            ["shard", "accounts", "dispatches", "utilization"], shard_rows,
            title="\nper-shard balance"))
        return "\n".join(parts)
