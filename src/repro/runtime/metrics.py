"""Fleet metrics: latency percentiles, throughput, outcome counters.

Everything here is deterministic by construction — no wall clock, no dict
iteration over unsorted byte keys — so two runs of the same seeded
simulation render byte-identical summaries (the replay tests and the load
benchmark both assert exactly that).

The numbers live only in a :class:`~repro.obs.MetricsRegistry`
(``fleet.interactions``, ``fleet.latency_seconds``, ...): the queries
(``count``, ``horizon_s``, ``latency_rows``) read those instruments
directly, so reports and exporters see one store.
"""

from __future__ import annotations

from repro.obs import MetricsRegistry

__all__ = ["FleetMetrics"]


class FleetMetrics:
    """Aggregated outcome of one fleet run.

    ``registry`` lets a composition root (the fleet simulation) share one
    :class:`~repro.obs.MetricsRegistry` between fleet accounting, the
    verification cache and any injected instrumentation bundle; when
    omitted the metrics own a private registry, so standalone use needs no
    wiring.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._outcomes = self.registry.counter(
            "fleet.interactions",
            help="completed interactions by op and reason")
        self._latency = self.registry.histogram(
            "fleet.latency_seconds",
            help="end-to-end interaction latency by op")
        self._horizon = self.registry.gauge(
            "fleet.horizon_seconds",
            help="virtual time of the latest interaction completion")
        self._bytes = self.registry.gauge(
            "fleet.channel_bytes",
            help="channel byte totals by direction")
        self._messages = self.registry.gauge(
            "fleet.messages", help="messages carried over all channels")

    def record(self, op: str, reason: str, latency_s: float,
               finished_s: float) -> None:
        """Account one completed interaction."""
        self._outcomes.inc(op=op, reason=reason)
        self._latency.observe(latency_s, op=op)
        self.horizon_s = max(self.horizon_s, finished_s)

    # ------------------------------------------------- registry-backed state
    @property
    def horizon_s(self) -> float:
        """Virtual time of the latest interaction completion."""
        return self._horizon.value(default=0.0)

    @horizon_s.setter
    def horizon_s(self, value: float) -> None:
        self._horizon.set(float(value))

    @property
    def bytes_to_server(self) -> int:
        return self._bytes.value(direction="to_server")

    @bytes_to_server.setter
    def bytes_to_server(self, value: int) -> None:
        self._bytes.set(value, direction="to_server")

    @property
    def bytes_to_device(self) -> int:
        return self._bytes.value(direction="to_device")

    @bytes_to_device.setter
    def bytes_to_device(self, value: int) -> None:
        self._bytes.set(value, direction="to_device")

    @property
    def messages(self) -> int:
        return self._messages.value()

    @messages.setter
    def messages(self, value: int) -> None:
        self._messages.set(value)

    # -------------------------------------------------------------- queries
    @property
    def interactions(self) -> int:
        """Total interactions recorded (any outcome)."""
        return self._outcomes.total()

    def count(self, op: str, reason: str | None = None) -> int:
        """Interactions for one op, optionally restricted to a reason."""
        if reason is not None:
            return self._outcomes.value(op=op, reason=reason)
        return sum(value for labels, value in self._outcomes.series()
                   if labels["op"] == op)

    @property
    def throughput_rps(self) -> float:
        """Completed interactions per simulated second."""
        if self.horizon_s <= 0:
            return 0.0
        return self.interactions / self.horizon_s

    def latency_rows(self) -> list[tuple[str, int, float, float, float]]:
        """Sorted ``(op, count, mean_s, p50_s, p99_s)`` rows."""
        return [(labels["op"], hist.count, hist.mean, hist.percentile(50),
                 hist.percentile(99))
                for labels, hist in self._latency.series()]
