"""Metrics (ROC/EER/latency) and text reporting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval import (
    detection_latency_stats,
    equal_error_rate,
    far_frr_at,
    format_si,
    render_density,
    render_table,
    roc_curve,
    standard_deployment,
)


class TestRoc:
    def test_perfect_separation(self):
        genuine = np.array([0.8, 0.9, 0.85])
        impostor = np.array([0.1, 0.2, 0.15])
        eer, threshold = equal_error_rate(genuine, impostor)
        assert eer == 0.0
        assert 0.2 < threshold < 0.8

    def test_total_overlap(self):
        scores = np.array([0.5] * 10)
        eer, _ = equal_error_rate(scores, scores)
        assert eer >= 0.49

    def test_eer_known_value(self):
        # 1 of 4 genuine below 0.5, 1 of 4 impostors above 0.5 -> EER 0.25.
        genuine = np.array([0.4, 0.7, 0.8, 0.9])
        impostor = np.array([0.1, 0.2, 0.3, 0.6])
        eer, _ = equal_error_rate(genuine, impostor)
        assert eer == pytest.approx(0.25, abs=0.01)

    def test_far_frr_at_threshold(self):
        genuine = np.array([0.4, 0.6])
        impostor = np.array([0.3, 0.7])
        far, frr = far_frr_at(genuine, impostor, 0.5)
        assert far == 0.5 and frr == 0.5

    def test_roc_monotonicity(self):
        rng = np.random.default_rng(0)
        curve = roc_curve(rng.beta(8, 3, 200), rng.beta(2, 8, 200))
        # FAR decreases with threshold, FRR increases.
        assert (np.diff(curve.far) <= 1e-12).all()
        assert (np.diff(curve.frr) >= -1e-12).all()

    def test_eer_reflects_separation(self):
        rng = np.random.default_rng(0)
        genuine, impostor = rng.beta(8, 3, 500), rng.beta(2, 8, 500)
        eer, _ = equal_error_rate(genuine, impostor)
        assert eer < 0.1
        swapped, _ = equal_error_rate(impostor, genuine)
        assert swapped > 0.9

    def test_curve_agrees_with_far_frr_at(self):
        """Every operating point on the sweep uses the same accept rule
        (score >= threshold) as a single fixed-threshold decision."""
        rng = np.random.default_rng(1)
        genuine, impostor = rng.beta(8, 3, 200), rng.beta(2, 8, 200)
        curve = roc_curve(genuine, impostor, n_thresholds=21)
        for threshold, far, frr in zip(curve.thresholds, curve.far,
                                       curve.frr):
            assert (far, frr) == far_frr_at(genuine, impostor, threshold)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            roc_curve(np.array([]), np.array([0.5]))

    @given(st.integers(min_value=2, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_eer_in_unit_range(self, n):
        rng = np.random.default_rng(n)
        eer, threshold = equal_error_rate(rng.random(n), rng.random(n))
        assert 0.0 <= eer <= 1.0
        assert 0.0 <= threshold <= 1.0


class TestLatencyStats:
    def test_basic(self):
        stats = detection_latency_stats([5, 10, 15, None])
        assert stats.n == 4 and stats.detected == 3
        assert stats.mean == pytest.approx(10.0)
        assert stats.median == pytest.approx(10.0)
        assert stats.detection_rate == pytest.approx(0.75)

    def test_none_detected(self):
        stats = detection_latency_stats([None, None])
        assert stats.detected == 0
        assert stats.mean == float("inf")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            detection_latency_stats([])


class TestReporting:
    def test_table_alignment(self):
        table = render_table(["name", "value"],
                             [["a", 1], ["longer-name", 2.5]],
                             title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1  # aligned

    def test_table_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_table_empty_headers(self):
        with pytest.raises(ValueError):
            render_table([], [])

    def test_density_render(self):
        grid = np.zeros((4, 6))
        grid[1, 2] = 1.0
        art = render_density(grid, title="D")
        lines = art.splitlines()
        assert lines[0] == "D"
        assert lines[2][2] == "@"  # peak gets the darkest shade
        assert lines[3][0] == " "

    def test_density_all_zero(self):
        art = render_density(np.zeros((2, 3)))
        assert set(art.replace("\n", "")) <= {" "}

    def test_density_requires_2d(self):
        with pytest.raises(ValueError):
            render_density(np.zeros(5))

    def test_format_si(self):
        assert format_si(0.00123, "s") == "1.23ms"
        assert format_si(12400.0, "B") == "12.4kB"
        assert format_si(0, "J") == "0J"
        assert format_si(3.2e-8, "s") == "32ns"


class TestHarness:
    def test_standard_deployment_cached(self):
        a = standard_deployment(seed=321, registered=False)
        b = standard_deployment(seed=321, registered=False)
        assert a is b

    def test_standard_deployment_registered(self):
        world = standard_deployment(seed=99)
        assert world.server.account_key(world.account) is not None
        assert world.device.flock.flash.has_record(world.server.domain)

    def test_fresh_channel(self):
        world = standard_deployment(seed=99)
        old = world.channel
        new = world.fresh_channel()
        assert new is not old and world.channel is new


class TestEerConfidence:
    def test_interval_brackets_point(self):
        from repro.eval import eer_confidence_interval
        rng = np.random.default_rng(0)
        genuine = rng.beta(8, 3, 150)
        impostor = rng.beta(2, 8, 150)
        point, low, high = eer_confidence_interval(genuine, impostor,
                                                   n_bootstrap=200)
        assert low <= point <= high
        assert 0.0 <= low and high <= 1.0
        assert high - low < 0.25  # informative at n=150

    def test_more_data_tighter_interval(self):
        from repro.eval import eer_confidence_interval
        rng = np.random.default_rng(1)
        small = eer_confidence_interval(rng.beta(8, 3, 40),
                                        rng.beta(2, 8, 40),
                                        n_bootstrap=200)
        large = eer_confidence_interval(rng.beta(8, 3, 800),
                                        rng.beta(2, 8, 800),
                                        n_bootstrap=200)
        assert (large[2] - large[1]) < (small[2] - small[1])

    def test_confidence_validation(self):
        from repro.eval import eer_confidence_interval
        with pytest.raises(ValueError):
            eer_confidence_interval(np.array([0.9]), np.array([0.1]),
                                    confidence=1.5)


class TestRenderSeries:
    def test_basic_shape(self):
        from repro.eval import render_series
        chart = render_series([0.0, 0.5, 1.0], title="T", height=4)
        lines = chart.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 1 + 4 + 1  # title + rows + axis
        assert lines[-1].startswith("      +")

    def test_values_land_on_their_levels(self):
        from repro.eval import render_series
        chart = render_series([0.0, 1.0], height=2, y_min=0, y_max=1)
        rows = chart.splitlines()
        assert rows[0].endswith(" *")  # top row: the 1.0 value
        assert rows[1].endswith("*.")  # bottom row: the 0.0 value

    def test_markers_drawn_on_top_row(self):
        from repro.eval import render_series
        chart = render_series([0.1] * 5, height=3, y_min=0, y_max=1,
                              markers={2: "T"})
        top = chart.splitlines()[0]
        assert top[7 + 2] == "T"

    def test_flat_series_ok(self):
        from repro.eval import render_series
        chart = render_series([0.5, 0.5, 0.5])
        assert "*" in chart

    def test_validation(self):
        from repro.eval import render_series
        with pytest.raises(ValueError):
            render_series([])
        with pytest.raises(ValueError):
            render_series([1.0], height=1)
