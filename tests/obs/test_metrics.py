"""MetricsRegistry instruments: counters, gauges, histograms, snapshots."""

import pytest

from repro.obs import NULL_REGISTRY, MetricsRegistry


class TestCounter:
    def test_inc_value_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("server.dispatch_calls")
        counter.inc(endpoint="login")
        counter.inc(endpoint="login")
        counter.inc(3, endpoint="page-request")
        assert counter.value(endpoint="login") == 2
        assert counter.value(endpoint="page-request") == 3
        assert counter.value(endpoint="never") == 0
        assert counter.total() == 5

    def test_counter_cannot_decrease(self):
        counter = MetricsRegistry().counter("ops")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_series_are_sorted_by_labels(self):
        counter = MetricsRegistry().counter("ops")
        counter.inc(op="zoom")
        counter.inc(op="login")
        assert counter.labelsets() == [{"op": "login"}, {"op": "zoom"}]
        assert [value for _, value in counter.series()] == [1, 1]


class TestGauge:
    def test_set_value(self):
        gauge = MetricsRegistry().gauge("fleet.channel_bytes")
        gauge.set(10, direction="up")
        gauge.set(12, direction="up")
        assert gauge.value(direction="up") == 12
        assert gauge.value(direction="down") == 0
        assert gauge.value(default=None, direction="down") is None

    def test_value_types_are_preserved(self):
        # Summary renderers format ints and floats differently; moving
        # them onto the registry must not change a byte of output.
        gauge = MetricsRegistry().gauge("g")
        gauge.set(7)
        assert repr(gauge.value()) == "7"
        gauge.set(7.0)
        assert repr(gauge.value()) == "7.0"


class TestHistogram:
    def test_observe_and_exact_percentiles(self):
        histogram = MetricsRegistry().histogram("latency")
        for sample in (0.4, 0.1, 0.2, 0.3):
            histogram.observe(sample, op="login")
        series = histogram.series_for(op="login")
        assert series.count == 4
        assert series.total == pytest.approx(1.0)
        assert series.mean == pytest.approx(0.25)
        assert series.percentile(50) == 0.2
        assert series.percentile(100) == 0.4

    def test_empty_series_and_bad_inputs(self):
        histogram = MetricsRegistry().histogram("latency")
        series = histogram.series_for()
        assert series.mean == 0.0
        assert series.percentile(99) == 0.0
        with pytest.raises(ValueError):
            series.record(-0.1)
        with pytest.raises(ValueError):
            series.percentile(101)


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("ops") is registry.counter("ops")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("ops")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("ops")

    def test_instruments_listed_sorted(self):
        registry = MetricsRegistry()
        registry.gauge("zeta")
        registry.counter("alpha")
        assert [i.name for i in registry.instruments()] == ["alpha", "zeta"]
        assert "alpha" in registry
        assert "missing" not in registry
        assert len(registry) == 2

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("ops", help="operations").inc(op="login")
        registry.histogram("latency").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["ops"] == {
            "kind": "counter", "help": "operations",
            "series": [{"labels": {"op": "login"}, "value": 1}],
        }
        (row,) = snapshot["latency"]["series"]
        assert row["value"] == {"count": 1, "mean": 0.5,
                                "p50": 0.5, "p99": 0.5}


class TestNullRegistry:
    def test_null_registry_accepts_and_drops_everything(self):
        instrument = NULL_REGISTRY.counter("anything")
        instrument.inc(op="login")
        NULL_REGISTRY.gauge("g").set(5)
        NULL_REGISTRY.histogram("h").observe(1.0)
        assert instrument.value(op="login") == 0
        assert instrument.total() == 0
        assert NULL_REGISTRY.instruments() == []
        assert NULL_REGISTRY.snapshot() == {}
        assert len(NULL_REGISTRY) == 0
        assert "anything" not in NULL_REGISTRY
