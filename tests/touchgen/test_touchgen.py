"""Layouts, user models, gestures, sessions, density maps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.touchgen import (
    GestureKind,
    SessionConfig,
    SessionGenerator,
    UiElement,
    UiLayout,
    UserTouchModel,
    density_map,
    example_users,
    make_swipe,
    make_tap,
    make_zoom,
    standard_layouts,
)


class TestLayouts:
    def test_standard_layouts_present(self):
        layouts = standard_layouts()
        assert set(layouts) == {"keyboard", "launcher", "browser",
                                "bank-app", "unlock"}

    def test_elements_inside_layout(self):
        for layout in standard_layouts().values():
            for element in layout.elements:
                assert element.x_mm >= 0 and element.y_mm >= 0
                assert element.x_mm + element.width_mm <= layout.width_mm + 1e-9
                assert element.y_mm + element.height_mm <= layout.height_mm + 1e-9

    def test_bank_app_has_critical_buttons(self):
        bank = standard_layouts()["bank-app"]
        assert any(e.critical for e in bank.elements)

    def test_sample_respects_weights(self):
        layout = UiLayout("l", 50, 50, (
            UiElement("heavy", 0, 0, 10, 10, weight=100.0),
            UiElement("light", 20, 20, 10, 10, weight=0.01),
        ))
        rng = np.random.default_rng(0)
        names = [layout.sample_element(rng).name for _ in range(50)]
        assert names.count("heavy") >= 45

    def test_invalid_element(self):
        with pytest.raises(ValueError):
            UiElement("bad", 0, 0, 0, 5)
        with pytest.raises(ValueError):
            UiElement("bad", 0, 0, 5, 5, weight=-1)

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            UiLayout("empty", 50, 50, ())
        with pytest.raises(ValueError):
            UiLayout("escapes", 50, 50, (UiElement("e", 45, 0, 10, 5),))


class TestUserModel:
    def test_example_users_distinct(self):
        users = example_users()
        assert len({u.user_id for u in users}) == 3
        assert len({u.finger_id for u in users}) == 3

    def test_positions_inside_panel(self):
        layout = standard_layouts()["browser"]
        user = example_users()[0]
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y, _ = user.sample_position(layout, rng)
            assert 0 <= x <= layout.width_mm
            assert 0 <= y <= layout.height_mm

    def test_dynamics_ranges(self):
        user = example_users()[1]
        rng = np.random.default_rng(0)
        for _ in range(100):
            pressure, speed, duration = user.sample_dynamics(rng)
            assert 0.05 <= pressure <= 0.95
            assert speed >= 0 and duration >= 0.02

    def test_handedness_validation(self):
        with pytest.raises(ValueError):
            UserTouchModel("u", "f", handedness="ambidextrous")

    def test_hotspot_draws_happen(self):
        user = UserTouchModel("u", "f",
                              extra_hotspots=[(30.0, 50.0, 1000.0)])
        layout = standard_layouts()["browser"]
        rng = np.random.default_rng(1)
        hits = sum(
            1 for _ in range(60)
            if user.sample_position(layout, rng)[2] is None
        )
        assert hits >= 55  # hotspot weight dominates UI weight


class TestGestures:
    def test_tap_single_event(self):
        tap = make_tap(1.0, 10, 20, 0.5, 0.1, "f")
        assert tap.kind is GestureKind.TAP
        assert len(tap.events) == 1
        assert not tap.changes_view
        assert tap.end_s == pytest.approx(1.1)

    def test_swipe_samples_and_speed(self):
        swipe = make_swipe(0.0, (10, 80), (10, 40), duration_s=0.2,
                           pressure=0.5, finger_id="f")
        assert swipe.kind is GestureKind.SWIPE
        assert len(swipe.events) == 50  # 0.2 s at 4 ms
        assert swipe.changes_view
        assert swipe.events[0].speed_mm_s == pytest.approx(200.0)  # 40mm/0.2s

    def test_swipe_clipped_to_panel(self):
        swipe = make_swipe(0.0, (5, 5), (-20, -20), duration_s=0.2,
                           pressure=0.5, finger_id="f")
        for event in swipe.events:
            assert event.x_mm >= 0 and event.y_mm >= 0

    def test_zoom_two_contacts_per_sample(self):
        zoom = make_zoom(0.0, (28, 47), 10, 30, duration_s=0.4,
                         pressure=0.5, finger_id="f")
        assert zoom.kind is GestureKind.ZOOM
        assert len(zoom.events) % 2 == 0
        assert zoom.changes_view

    def test_gesture_validation(self):
        with pytest.raises(ValueError):
            make_swipe(0, (0, 0), (1, 1), duration_s=0, pressure=0.5,
                       finger_id="f")
        with pytest.raises(ValueError):
            make_zoom(0, (10, 10), 0, 10, duration_s=0.2, pressure=0.5,
                      finger_id="f")

    def test_primary_event_is_first(self):
        swipe = make_swipe(3.0, (10, 80), (10, 40), duration_s=0.2,
                           pressure=0.5, finger_id="f")
        assert swipe.primary_event.time_s == pytest.approx(3.0)


class TestSessions:
    @pytest.fixture(scope="class")
    def trace(self):
        generator = SessionGenerator(example_users()[0])
        return generator.generate(SessionConfig(n_interactions=150), seed=3)

    def test_interaction_count(self, trace):
        assert trace.n_touches == 150
        assert len(trace.layout_names) == 150

    def test_time_is_monotone(self, trace):
        starts = [g.start_s for g in trace.gestures]
        assert all(b > a for a, b in zip(starts, starts[1:]))

    def test_gesture_mix_roughly_matches_config(self, trace):
        kinds = [g.kind for g in trace.gestures]
        tap_fraction = kinds.count(GestureKind.TAP) / len(kinds)
        assert 0.6 < tap_fraction < 0.9

    def test_deterministic(self):
        generator = SessionGenerator(example_users()[1])
        a = generator.generate(SessionConfig(n_interactions=30), seed=11)
        b = generator.generate(SessionConfig(n_interactions=30), seed=11)
        assert a.primary_points().tolist() == b.primary_points().tolist()

    def test_unknown_layout_rejected(self):
        generator = SessionGenerator(example_users()[0])
        config = SessionConfig(layout_mix=(("nonexistent", 1.0),))
        with pytest.raises(KeyError):
            generator.generate(config, seed=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(n_interactions=0)
        with pytest.raises(ValueError):
            SessionConfig(tap_fraction=0.9, swipe_fraction=0.5)


class TestDensityMap:
    def test_normalized(self):
        points = np.array([[10.0, 10.0], [30.0, 50.0], [30.0, 51.0]])
        grid = density_map(points, 56, 94)
        assert grid.sum() == pytest.approx(1.0)
        assert grid.shape == (47, 28)

    def test_empty_points(self):
        grid = density_map(np.zeros((0, 2)), 56, 94)
        assert grid.sum() == 0.0

    def test_peak_at_cluster(self):
        points = np.tile([[28.0, 47.0]], (100, 1))
        grid = density_map(points, 56, 94, smooth=False)
        peak = np.unravel_index(np.argmax(grid), grid.shape)
        assert abs(peak[0] - 23) <= 1 and abs(peak[1] - 14) <= 1

    def test_fig7_shape_users_are_peaked_and_overlapping(self):
        """The core Fig. 7 observation: hot-spots exist and overlap."""
        grids = []
        for user in example_users():
            generator = SessionGenerator(user)
            trace = generator.generate(SessionConfig(n_interactions=250),
                                       seed=17)
            grids.append(density_map(trace.primary_points(), 56, 94))
        uniform = 1.0 / grids[0].size
        for grid in grids:
            assert grid.max() > 8 * uniform  # strongly peaked
        # Overlap: the product of top-density regions is non-empty for at
        # least one user pair.
        tops = [grid > 3 * uniform for grid in grids]
        overlaps = [
            (tops[i] & tops[j]).sum()
            for i in range(3) for j in range(i + 1, 3)
        ]
        assert max(overlaps) > 0

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_any_point_count_normalizes(self, n):
        rng = np.random.default_rng(n)
        points = rng.uniform([0, 0], [56, 94], size=(n, 2))
        assert density_map(points, 56, 94).sum() == pytest.approx(1.0)
