"""Structured observability: trace contexts, metrics registry, exporters.

This package is the repo's measurement substrate.  It sits at the very
bottom of the layering DAG (it imports nothing from ``repro``) so every
layer — hardware sensing, the FLock module, the protocol client/server,
the fleet runtime — can emit through it without bending an import edge.

Determinism is the design rule: no wall clock, no randomness, no unsorted
iteration anywhere.  Span timestamps come from an injected clock (a step
counter by default, the fleet scheduler's virtual clock under load), ids
come from per-tracer counters, and every exporter sorts its output, so
two runs of the same seeded scenario export byte-identical traces and
metrics.

Quickstart::

    from repro.obs import Instrumentation, render_trace_text

    obs = Instrumentation.live()
    with obs.tracer.span("gesture", kind="tap") as span:
        span.set_attribute("outcome", "verified")
        obs.metrics.counter("gestures").inc(kind="tap")
    print(render_trace_text(obs.tracer))
"""

from .instrument import NOOP, Instrumentation
from .metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    HistogramSeries,
    MetricsRegistry,
    NullMetricsRegistry,
    NULL_REGISTRY,
)
from .trace import NULL_TRACER, NullTracer, Span, Tracer
from .export import (
    render_metrics_json,
    render_metrics_prometheus,
    render_metrics_text,
    render_trace_json,
    render_trace_text,
    trace_roots,
)

__all__ = [
    "Instrumentation",
    "NOOP",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "HistogramSeries",
    "trace_roots",
    "render_trace_text",
    "render_trace_json",
    "render_metrics_text",
    "render_metrics_json",
    "render_metrics_prometheus",
]
