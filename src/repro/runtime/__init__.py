"""Multi-tenant TRUST runtime: a discrete-event fleet simulator.

This package serves thousands of simulated TRUST devices against a
shardable pool of :class:`~repro.net.WebServer` replicas, entirely through
the uniform ``WebServer.dispatch`` endpoint API:

- :mod:`~repro.runtime.scheduler` — seeded virtual-clock event loop and
  the per-shard FIFO service queue (the latency model).
- :mod:`~repro.runtime.dispatcher` — consistent-hash account router and
  the replica pool with live rebalancing.
- :mod:`~repro.runtime.cache` — digest-keyed verification-result cache
  (certificate signatures) with hit-rate accounting.
- :mod:`~repro.runtime.fleet` — fleet configuration and the device
  factory that builds members from a few manufacturing batches' keys.
- :mod:`~repro.runtime.metrics` — latency percentiles, throughput and
  outcome counters.
- :mod:`~repro.runtime.simulation` — the scenario driver tying it all
  together.

Quickstart::

    from repro.runtime import FleetConfig, FleetSimulation
    result = FleetSimulation(FleetConfig(n_devices=100, n_shards=4)).run()
    print(result.summary)
"""

from .cache import VerificationCache
from .dispatcher import ConsistentHashRouter, ServerPool
from .fleet import BUTTON_XY, DeviceActor, DeviceFactory, FleetConfig, draw_risk
from .metrics import FleetMetrics
from .scheduler import EventLoop, ServiceQueue
from .simulation import EXPECTED_REJECTIONS, SERVICE_TIME_S, FleetResult, FleetSimulation

__all__ = [
    "BUTTON_XY",
    "ConsistentHashRouter",
    "DeviceActor",
    "DeviceFactory",
    "EXPECTED_REJECTIONS",
    "EventLoop",
    "FleetConfig",
    "FleetMetrics",
    "FleetResult",
    "FleetSimulation",
    "SERVICE_TIME_S",
    "ServerPool",
    "ServiceQueue",
    "VerificationCache",
    "draw_risk",
]
