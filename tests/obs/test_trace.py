"""Tracer and span mechanics: nesting, ids, clocks, failure handling."""

import pytest

from repro.obs import NOOP, NULL_TRACER, Instrumentation, Tracer


class TestSpanNesting:
    def test_nested_spans_build_one_tree(self):
        tracer = Tracer()
        with tracer.span("gesture") as root:
            with tracer.span("pipeline.process"):
                with tracer.span("sensor.capture"):
                    pass
            with tracer.span("client.request"):
                pass
        assert [span.name for span in root.walk()] \
            == ["gesture", "pipeline.process", "sensor.capture",
                "client.request"]
        assert tracer.spans == [root]
        assert root.parent_id is None
        assert all(child.parent_id == root.span_id
                   for child in root.children)

    def test_sibling_roots_get_distinct_trace_ids(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [span.trace_id for span in tracer.spans] == ["t0001", "t0002"]

    def test_children_share_the_root_trace_id(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                assert tracer.current_trace_id == "t0001"
        (root,) = tracer.spans
        assert {span.trace_id for span in root.walk()} == {"t0001"}

    def test_span_ids_are_sequential(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [span.span_id for root in tracer.spans
                for span in root.walk()] == [1, 2, 3]


    def test_each_tracer_numbers_its_own_spans(self):
        """Ids and the step clock belong to one tracer: a new tracer
        starts from t0001 and span 1 however many spans another holds."""
        first = Tracer()
        with first.span("a"):
            with first.span("b"):
                pass
        second = Tracer()
        with second.span("c") as span:
            pass
        with first.span("d") as later:
            pass
        assert (span.trace_id, span.span_id, span.start_time) == \
            ("t0001", 1, 0)
        assert (later.trace_id, later.span_id) == ("t0002", 3)


class TestClocks:
    def test_default_clock_is_a_step_counter(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        (root,) = tracer.spans
        (child,) = root.children
        assert root.start_time == 0
        assert child.start_time == 1
        assert child.end_time == 2
        assert root.end_time == 3

    def test_bind_clock_adopts_external_time(self):
        now = {"t": 100.0}
        tracer = Tracer()
        tracer.bind_clock(lambda: now["t"])
        with tracer.span("event") as span:
            now["t"] = 107.5
        assert span.start_time == 100.0
        assert span.end_time == 107.5


class TestRecording:
    def test_attributes(self):
        tracer = Tracer()
        with tracer.span("gesture", kind="tap") as span:
            span.set_attribute("risk", 0.25)
        assert span.attributes == {"kind": "tap", "risk": 0.25}



class TestFailures:
    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("work") as span:
                raise ValueError("boom")
        assert span.status == "error"
        assert span.attributes["error.type"] == "ValueError"
        assert span.end_time is not None

    def test_exception_unwinds_every_open_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer") as outer:
                with tracer.span("inner"):
                    raise RuntimeError("deep")
        assert outer.status == "error"
        assert all(span.end_time is not None for span in outer.walk())
        assert tracer.current_trace_id is None


class TestQueriesAndReset:
    def test_find_spans_across_traces(self):
        tracer = Tracer()
        for _ in range(2):
            with tracer.span("gesture"):
                with tracer.span("flock.match"):
                    pass
        assert len(tracer.find("flock.match")) == 2
        assert tracer.find("nothing") == []


class TestNullTracer:
    def test_null_tracer_records_nothing(self):
        first = NULL_TRACER.span("anything", risk=1.0)
        second = NULL_TRACER.span("else")
        assert first is second  # one reusable span, no allocation
        with first as span:
            span.set_attribute("dropped", True)
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.find("anything") == []
        assert not NULL_TRACER.enabled

    def test_noop_bundle_is_disabled(self):
        assert not NOOP.enabled
        assert Instrumentation.live().enabled
