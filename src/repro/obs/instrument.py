"""The injectable instrumentation bundle: one tracer + one registry.

Every instrumented layer defaults to :data:`NOOP`, a shared bundle of the
null tracer and null registry — so constructing objects without
observability costs nothing and emits nothing.  A layer takes a live
bundle through an optional ``obs`` argument, or, for a device's FLock
module, through its ``obs`` property.  A composition root (a test, the
trace CLI, the fleet simulation) builds one live bundle with
:meth:`Instrumentation.live` and hands the *same* bundle to every layer;
because all layers share one tracer, a single gesture produces a single
trace tree from sensor capture to server decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import MetricsRegistry, NullMetricsRegistry, NULL_REGISTRY
from .trace import NullTracer, Tracer, NULL_TRACER

__all__ = ["Instrumentation", "NOOP"]


@dataclass
class Instrumentation:
    """One tracer plus one metrics registry, injected as a unit."""

    tracer: Tracer | NullTracer = field(default_factory=Tracer)
    metrics: MetricsRegistry | NullMetricsRegistry = field(
        default_factory=MetricsRegistry)

    @property
    def enabled(self) -> bool:
        """True when spans are actually recorded."""
        return self.tracer.enabled

    @classmethod
    def live(cls) -> "Instrumentation":
        """A fresh recording bundle on the deterministic step clock."""
        return cls(tracer=Tracer(), metrics=MetricsRegistry())


#: Shared do-nothing bundle; the default for every ``obs`` parameter.
NOOP = Instrumentation(tracer=NULL_TRACER, metrics=NULL_REGISTRY)
