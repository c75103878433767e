"""Exporters: text trees, JSON documents, Prometheus exposition."""

import json

from repro.obs import (
    MetricsRegistry,
    Tracer,
    render_metrics_json,
    render_metrics_prometheus,
    render_metrics_text,
    render_trace_json,
    render_trace_text,
    trace_roots,
)


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("gesture", kind="tap"):
        with tracer.span("flock.match", score=0.5):
            pass
    return tracer


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("ops", help="client ops").inc(op="login")
    registry.gauge("horizon").set(12.5)
    registry.histogram("latency").observe(0.5, op="login")
    return registry


class TestTraceRoots:
    def test_normalizes_tracer_span_and_list(self):
        tracer = _sample_tracer()
        (root,) = tracer.spans
        assert trace_roots(tracer) == [root]
        assert trace_roots(root) == [root]
        assert trace_roots([root]) == [root]


class TestTraceText:
    def test_tree_shape_and_attributes(self):
        text = render_trace_text(_sample_tracer())
        lines = text.splitlines()
        assert lines[0] == "trace t0001"
        assert lines[1].startswith("  gesture ")
        assert "kind=tap" in lines[1]
        assert lines[2].startswith("    flock.match ")
        assert "score=0.5" in lines[2]
        assert len(lines) == 3

    def test_empty_tracer_renders_placeholder(self):
        assert render_trace_text(Tracer()) == "no traces recorded"


class TestTraceJson:
    def test_document_round_trips_and_sorts(self):
        document = json.loads(render_trace_json(_sample_tracer()))
        (trace,) = document["traces"]
        assert sorted(trace) == ["attributes", "children", "end_time",
                                 "name", "parent_id", "span_id",
                                 "start_time", "status", "trace_id"]
        assert trace["name"] == "gesture"
        assert trace["trace_id"] == "t0001"
        (child,) = trace["children"]
        assert child["name"] == "flock.match"
        assert child["parent_id"] == trace["span_id"]

    def test_identical_runs_export_identical_bytes(self):
        assert render_trace_json(_sample_tracer()) \
            == render_trace_json(_sample_tracer())


class TestMetricsText:
    def test_rows_and_histogram_summary(self):
        text = render_metrics_text(_sample_registry())
        assert 'horizon = 12.5' in text
        assert 'ops{op="login"} = 1' in text
        assert 'latency{op="login"} = count=1 mean=0.5' in text

    def test_empty_registry_renders_placeholder(self):
        assert render_metrics_text(MetricsRegistry()) == "no metrics recorded"


class TestMetricsJson:
    def test_snapshot_document(self):
        document = json.loads(render_metrics_json(_sample_registry()))
        assert document["metrics"]["ops"]["kind"] == "counter"
        assert document["metrics"]["horizon"]["series"][0]["value"] == 12.5


class TestMetricsPrometheus:
    def test_exposition_format(self):
        text = render_metrics_prometheus(_sample_registry())
        assert "# HELP ops client ops" in text
        assert "# TYPE ops counter" in text
        assert 'ops{op="login"} 1' in text
        assert "# TYPE latency summary" in text
        assert 'latency_count{op="login"} 1' in text
        assert 'latency_sum{op="login"} 0.5' in text
        assert 'latency{op="login",quantile="0.50"} 0.5' in text
        assert text.endswith("\n")

    def test_dotted_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("server.dispatch_calls").inc()
        text = render_metrics_prometheus(registry)
        assert "server_dispatch_calls 1" in text
