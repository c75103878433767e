"""Touchscreen model and sensor placement."""

import numpy as np
import pytest

from repro.hardware import (
    FLOCK_SENSOR,
    PlacedSensor,
    SensorLayout,
    TouchEvent,
    TouchPanel,
    greedy_placement,
    grid_placement,
    random_placement,
)


class TestTouchPanel:
    def test_locate_quantizes(self):
        panel = TouchPanel(width_mm=56, height_mm=94, grid_rows=40, grid_cols=24)
        located = panel.locate(TouchEvent(time_s=1.0, x_mm=28.0, y_mm=47.0))
        assert 0 <= located.grid_row < 40
        assert 0 <= located.grid_col < 24
        assert abs(located.x_mm - 28.0) < 56 / 24
        assert abs(located.y_mm - 47.0) < 94 / 40

    def test_report_latency_is_4ms(self):
        panel = TouchPanel()
        located = panel.locate(TouchEvent(time_s=2.0, x_mm=10, y_mm=10))
        assert located.report_time_s == pytest.approx(2.004)

    def test_out_of_panel_rejected(self):
        panel = TouchPanel()
        with pytest.raises(ValueError, match="outside panel"):
            panel.locate(TouchEvent(time_s=0, x_mm=100.0, y_mm=10.0))

    def test_corner_touch_in_range(self):
        panel = TouchPanel()
        located = panel.locate(
            TouchEvent(time_s=0, x_mm=panel.width_mm, y_mm=panel.height_mm))
        assert located.grid_row == panel.grid_rows - 1
        assert located.grid_col == panel.grid_cols - 1

    def test_event_validation(self):
        with pytest.raises(ValueError):
            TouchEvent(time_s=0, x_mm=1, y_mm=1, pressure=2.0).validate()
        with pytest.raises(ValueError):
            TouchEvent(time_s=0, x_mm=1, y_mm=1, duration_s=0).validate()

    def test_touch_counter(self):
        panel = TouchPanel()
        panel.locate(TouchEvent(time_s=0, x_mm=5, y_mm=5))
        panel.locate(TouchEvent(time_s=0, x_mm=6, y_mm=8))
        assert panel.touches_seen == 2

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            TouchPanel(width_mm=-1)
        with pytest.raises(ValueError):
            TouchPanel(grid_rows=1)


class TestPlacedSensor:
    def test_covers_with_margin(self):
        sensor = PlacedSensor(FLOCK_SENSOR, 10.0, 20.0)  # 12.8 mm square
        assert sensor.covers(16.0, 26.0)
        assert sensor.covers(16.0, 26.0, margin_mm=4.0)
        assert not sensor.covers(11.0, 21.0, margin_mm=4.0)  # near edge
        assert not sensor.covers(5.0, 26.0)

    def test_cell_address_translation(self):
        sensor = PlacedSensor(FLOCK_SENSOR, 10.0, 20.0)
        row, col = sensor.cell_address(10.0 + 6.4, 20.0 + 6.4)  # centre
        assert abs(row - FLOCK_SENSOR.rows // 2) <= 1
        assert abs(col - FLOCK_SENSOR.cols // 2) <= 1

    def test_cell_address_outside_raises(self):
        sensor = PlacedSensor(FLOCK_SENSOR, 10.0, 20.0)
        with pytest.raises(ValueError):
            sensor.cell_address(0.0, 0.0)

    def test_overlap_detection(self):
        a = PlacedSensor(FLOCK_SENSOR, 0.0, 0.0)
        b = PlacedSensor(FLOCK_SENSOR, 6.0, 6.0)
        c = PlacedSensor(FLOCK_SENSOR, 20.0, 20.0)
        assert a.overlaps(b) and not a.overlaps(c)


class TestSensorLayout:
    def test_rejects_off_panel(self):
        with pytest.raises(ValueError, match="off-panel"):
            SensorLayout(56, 94, [PlacedSensor(FLOCK_SENSOR, 50.0, 0.0)])

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            SensorLayout(56, 94, [
                PlacedSensor(FLOCK_SENSOR, 0.0, 0.0, label="a"),
                PlacedSensor(FLOCK_SENSOR, 5.0, 5.0, label="b"),
            ])

    def test_sensor_at(self):
        layout = SensorLayout(56, 94, [PlacedSensor(FLOCK_SENSOR, 10, 10)])
        assert layout.sensor_at(16, 16) is not None
        assert layout.sensor_at(50, 80) is None

    def test_area_fraction(self):
        layout = SensorLayout(56, 94, [PlacedSensor(FLOCK_SENSOR, 10, 10)])
        assert layout.area_fraction() == pytest.approx(
            12.8 * 12.8 / (56 * 94))

    def test_capture_rate(self):
        layout = SensorLayout(56, 94, [PlacedSensor(FLOCK_SENSOR, 10, 10)])
        points = np.array([[16.0, 16.0], [50.0, 80.0], [12.0, 12.0]])
        assert layout.capture_rate(points) == pytest.approx(2 / 3)
        assert layout.capture_rate(np.zeros((0, 2))) == 0.0


def _hotspot_density(rows=47, cols=28):
    """A density map with one dominant hot-spot (bottom-centre keyboard)."""
    density = np.full((rows, cols), 0.001)
    density[36:44, 8:20] = 1.0  # hot-spot
    return density / density.sum()


class TestPlacementAlgorithms:
    def test_greedy_lands_on_hotspot(self):
        density = _hotspot_density()
        layout = greedy_placement(density, 56.0, 94.0, FLOCK_SENSOR,
                                  n_sensors=1, margin_mm=2.0)
        sensor = layout.sensors[0]
        # Hot-spot rows 36-44 of 47 -> y around 72-88 mm; the sensor must
        # cover part of that band.
        assert sensor.y_mm + sensor.height_mm > 70.0
        assert 10.0 < sensor.x_mm + sensor.width_mm / 2 < 46.0

    def test_greedy_beats_grid_on_hotspot_workload(self):
        density = _hotspot_density()
        rng = np.random.default_rng(0)
        # Sample touches from the density map.
        flat = density.ravel()
        draws = rng.choice(len(flat), size=400, p=flat / flat.sum())
        rr, cc = np.unravel_index(draws, density.shape)
        points = np.stack([
            (cc + rng.random(400)) * 56.0 / density.shape[1],
            (rr + rng.random(400)) * 94.0 / density.shape[0],
        ], axis=1)

        greedy = greedy_placement(density, 56.0, 94.0, FLOCK_SENSOR, 2)
        grid = grid_placement(56.0, 94.0, FLOCK_SENSOR, 2)
        assert greedy.capture_rate(points) > grid.capture_rate(points)

    def test_grid_positions_on_panel(self):
        layout = grid_placement(56.0, 94.0, FLOCK_SENSOR, 4)
        assert len(layout.sensors) == 4

    def test_random_placement_deterministic_under_seed(self):
        a = random_placement(56.0, 94.0, FLOCK_SENSOR, 3,
                             np.random.default_rng(1))
        b = random_placement(56.0, 94.0, FLOCK_SENSOR, 3,
                             np.random.default_rng(1))
        assert [(s.x_mm, s.y_mm) for s in a.sensors] \
            == [(s.x_mm, s.y_mm) for s in b.sensors]

    def test_validation(self):
        with pytest.raises(ValueError):
            greedy_placement(_hotspot_density(), 56, 94, FLOCK_SENSOR, 0)
        with pytest.raises(ValueError):
            grid_placement(56, 94, FLOCK_SENSOR, 0)
        with pytest.raises(ValueError):
            random_placement(56, 94, FLOCK_SENSOR, 0, np.random.default_rng(0))

    def test_greedy_sensor_too_large(self):
        with pytest.raises(ValueError, match="larger than panel"):
            greedy_placement(_hotspot_density(), 5.0, 5.0, FLOCK_SENSOR, 1)

    def test_random_overcrowding_raises(self):
        with pytest.raises(RuntimeError):
            random_placement(26.0, 26.0, FLOCK_SENSOR, 5,
                             np.random.default_rng(0), max_attempts=50)
