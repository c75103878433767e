"""Deterministic exporters for traces and metrics.

Three formats, all renderer-pure (no I/O, no wall clock, fully sorted):

- text: indented span trees / aligned metric rows for terminals,
- JSON: ``sort_keys`` documents for golden-file diffing and tooling,
- Prometheus-style exposition text for the metrics registry.

Two runs of the same seeded scenario must render byte-identical output in
every format; the trace-export smoke in CI diffs exactly that.
"""

from __future__ import annotations

import json

from .metrics import HistogramSeries, MetricsRegistry
from .trace import Span

__all__ = [
    "trace_roots",
    "render_trace_text",
    "render_trace_json",
    "render_metrics_text",
    "render_metrics_json",
    "render_metrics_prometheus",
]


def trace_roots(source) -> list[Span]:
    """Normalize a tracer, span or span list into a list of root spans."""
    if isinstance(source, Span):
        return [source]
    spans = getattr(source, "spans", source)
    return list(spans)


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_span(span: Span, depth: int, lines: list[str]) -> None:
    indent = "  " * depth
    attrs = " ".join(f"{key}={_format_value(span.attributes[key])}"
                     for key in sorted(span.attributes))
    status = "" if span.status == "ok" else f" [{span.status}]"
    head = (f"{indent}{span.name}{status} "
            f"({_format_value(span.start_time)}"
            f"..{_format_value(span.end_time)})")
    lines.append(head + (f" {attrs}" if attrs else ""))
    for child in span.children:
        _render_span(child, depth + 1, lines)


def render_trace_text(source) -> str:
    """Indented text tree of every trace recorded by ``source``."""
    lines: list[str] = []
    for root in trace_roots(source):
        lines.append(f"trace {root.trace_id}")
        _render_span(root, 1, lines)
    if not lines:
        lines.append("no traces recorded")
    return "\n".join(lines)


def render_trace_json(source) -> str:
    """JSON document of every trace tree (sorted keys, stable bytes)."""
    document = {"traces": [root.to_dict() for root in trace_roots(source)]}
    return json.dumps(document, indent=1, sort_keys=True)


def _labels_text(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{name}="{labels[name]}"' for name in sorted(labels))
    return "{" + inner + "}"


def render_metrics_text(registry: MetricsRegistry) -> str:
    """Aligned ``name{labels} = value`` rows for terminals."""
    lines: list[str] = []
    for instrument in registry.instruments():
        for labels, value in instrument.series():
            if isinstance(value, HistogramSeries):
                value = (f"count={value.count} "
                         f"mean={_format_value(value.mean)} "
                         f"p50={_format_value(value.percentile(50))} "
                         f"p99={_format_value(value.percentile(99))}")
            lines.append(f"{instrument.name}{_labels_text(labels)} "
                         f"= {value}")
    if not lines:
        lines.append("no metrics recorded")
    return "\n".join(lines)


def render_metrics_json(registry: MetricsRegistry) -> str:
    """JSON document of the registry snapshot (sorted keys)."""
    return json.dumps({"metrics": registry.snapshot()}, indent=1,
                      sort_keys=True)


def render_metrics_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus-style exposition text (HELP/TYPE plus one sample per
    series; histograms export ``_count``/``_sum`` and quantile gauges)."""
    lines: list[str] = []
    for instrument in registry.instruments():
        name = instrument.name.replace(".", "_").replace("-", "_")
        if instrument.help:
            lines.append(f"# HELP {name} {instrument.help}")
        kind = ("summary" if instrument.kind == "histogram"
                else instrument.kind)
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in instrument.series():
            if isinstance(value, HistogramSeries):
                base = _labels_text(labels)
                lines.append(f"{name}_count{base} {value.count}")
                lines.append(f"{name}_sum{base} "
                             f"{_format_value(value.total)}")
                for quantile in (50, 99):
                    qlabels = dict(labels)
                    qlabels["quantile"] = f"0.{quantile}"
                    lines.append(
                        f"{name}{_labels_text(qlabels)} "
                        f"{_format_value(value.percentile(quantile))}")
            else:
                lines.append(f"{name}{_labels_text(labels)} "
                             f"{_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")
