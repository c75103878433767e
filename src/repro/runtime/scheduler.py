"""Deterministic discrete-event scheduler with a virtual clock.

The fleet simulation never touches the wall clock: every device action is
an event on this loop, time advances only by popping the event heap, and
ties are broken by a monotonic sequence number — so a run is a pure
function of its seeds.  The executed-event trace doubles as the
determinism witness: two runs of the same configuration must produce
byte-identical traces (see ``tests/runtime/test_fleet_replay.py``).
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import NULL_TRACER

__all__ = ["EventLoop", "EventTrace", "ServiceQueue"]


class EventTrace(Sequence):
    """Executed events as ``(virtual_time, label)`` pairs, in two columns.

    The times sit in an ``array('d')`` and the labels in a list of
    references, so an event costs 16 bytes here instead of a tuple, a
    float and a string.  Callers that pass one label object per actor and
    op share it across events.  It reads as the list of pairs it replaces:
    it iterates, indexes, counts and compares equal to that list.
    """

    def __init__(self) -> None:
        self._times = array("d")
        self._labels: list[str] = []

    def append(self, at: float, label: str) -> None:
        """Record one executed event."""
        self._times.append(at)
        self._labels.append(label)

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(self._times[index], self._labels[index]))
        return self._times[index], self._labels[index]

    def __iter__(self):
        return zip(self._times, self._labels)

    def __eq__(self, other) -> bool:
        if isinstance(other, EventTrace):
            return (self._times == other._times
                    and self._labels == other._labels)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


class EventLoop:
    """A (time, sequence)-ordered event heap driving a virtual clock.

    When a tracer is injected, every executed event runs inside a
    ``loop.event`` span stamped with the event's virtual time — and since
    the composition root binds the tracer's clock to ``loop.now``, every
    span the event's action opens (client ops, server dispatches) carries
    virtual-clock timestamps too, keeping fleet traces deterministic.
    """

    def __init__(self, tracer=None) -> None:
        self.now = 0.0
        self.processed = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._seq = 0
        self._heap: list[tuple[float, int, str, Callable[[], None]]] = []
        #: Executed events as ``(virtual_time, label)`` — the replay trace.
        self.trace = EventTrace()

    def schedule(self, at: float, label: str,
                 action: Callable[[], None]) -> None:
        """Enqueue ``action`` to run at virtual time ``at``."""
        at = float(at)
        if at < self.now:
            raise ValueError(
                f"cannot schedule into the past ({at:.6f} < {self.now:.6f})")
        heapq.heappush(self._heap, (at, self._seq, label, action))
        self._seq += 1

    def run(self, max_events: int | None = None) -> int:
        """Pop-and-execute until the heap drains; returns events run."""
        ran = 0
        while self._heap and (max_events is None or ran < max_events):
            at, _, label, action = heapq.heappop(self._heap)
            self.now = at
            self.trace.append(at, label)
            with self.tracer.span("loop.event", label=label, at=at):
                action()
            ran += 1
            self.processed += 1
        return ran


@dataclass
class ServiceQueue:
    """FIFO single-server queue in virtual time (one shard's capacity).

    Jobs are admitted in arrival order; a job arriving while the server is
    busy waits until ``busy_until``.  This is the latency model of the
    fleet: response time = queue wait + service time (+ the network RTT the
    caller adds).
    """

    busy_until: float = field(default=0.0, init=False)
    served: int = field(default=0, init=False)
    busy_time_s: float = field(default=0.0, init=False)

    def begin(self, arrival: float, service_s: float) -> tuple[float, float]:
        """Admit one job; returns its (start, completion) virtual times."""
        if service_s < 0:
            raise ValueError(f"negative service time {service_s!r}")
        start = max(float(arrival), self.busy_until)
        completion = start + service_s
        self.busy_until = completion
        self.served += 1
        self.busy_time_s += service_s
        return start, completion

    def utilization(self, horizon_s: float) -> float:
        """Busy fraction of ``[0, horizon_s]`` (0.0 for an empty horizon)."""
        if horizon_s <= 0:
            return 0.0
        return min(1.0, self.busy_time_s / horizon_s)
