"""SensorSpec, SensorArray, readout policies, power model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import (
    FLOCK_SENSOR,
    TABLE2_SPECS,
    AddressingMode,
    CaptureWindow,
    PowerModel,
    ReadoutPolicy,
    SensorArray,
    SensorSpec,
    compare_policies,
)
from repro.hardware.sensor_array import SETUP_CYCLES


class TestSensorSpec:
    def test_table2_has_five_designs(self):
        assert len(TABLE2_SPECS) == 5
        assert len({s.name for s in TABLE2_SPECS}) == 5

    def test_dimensions_match_paper(self):
        by_ref = {s.reference: s for s in TABLE2_SPECS}
        assert (by_ref["[24]"].rows, by_ref["[24]"].cols) == (64, 256)
        assert (by_ref["[10]"].rows, by_ref["[10]"].cols) == (320, 250)
        assert (by_ref["[9]"].rows, by_ref["[9]"].cols) == (304, 304)

    def test_physical_size(self):
        spec = SensorSpec("s", "x", cell_um=50.0, rows=256, cols=256,
                          clock_hz=1e6, addressing=AddressingMode.SERIAL)
        assert spec.width_mm == pytest.approx(12.8)
        assert spec.height_mm == pytest.approx(12.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            SensorSpec("s", "x", 50.0, 0, 10, 1e6, AddressingMode.SERIAL)
        with pytest.raises(ValueError):
            SensorSpec("s", "x", 50.0, 10, 10, 0, AddressingMode.SERIAL)
        with pytest.raises(ValueError):
            SensorSpec("s", "x", 50.0, 10, 10, 1e6, AddressingMode.SERIAL,
                       cells_per_cycle=0)


class TestCaptureWindow:
    def test_clamping(self):
        window = CaptureWindow(-5, 300, -2, 270).clamp(256, 256)
        assert (window.row0, window.row1) == (0, 256)
        assert (window.col0, window.col1) == (0, 256)

    def test_around_centered(self):
        window = CaptureWindow.around(100, 100, 40, 256, 256)
        assert window.n_rows == 80 and window.n_cols == 80

    def test_around_clamped_at_edge(self):
        window = CaptureWindow.around(10, 10, 40, 256, 256)
        assert window.row0 == 0 and window.col0 == 0
        assert window.n_rows == 50

    def test_around_needs_positive_extent(self):
        with pytest.raises(ValueError):
            CaptureWindow.around(10, 10, 0, 256, 256)

    def test_empty(self):
        assert CaptureWindow(5, 5, 0, 10).is_empty


class TestSensorArrayTiming:
    def test_hashido_serial_matches_published_exactly(self):
        spec = next(s for s in TABLE2_SPECS if s.reference == "[10]")
        modeled = SensorArray(spec).full_frame_response_ms()
        # 320*250 cells at 500 kHz = 160 ms (+ negligible setup).
        assert modeled == pytest.approx(160.0, rel=0.001)

    @pytest.mark.parametrize("spec", TABLE2_SPECS, ids=lambda s: s.name)
    def test_modeled_within_40pct_of_published(self, spec):
        modeled = SensorArray(spec).full_frame_response_ms()
        assert modeled == pytest.approx(spec.published_response_ms, rel=0.40)

    def test_published_ordering_preserved(self):
        modeled = {s.name: SensorArray(s).full_frame_response_ms()
                   for s in TABLE2_SPECS}
        published = {s.name: s.published_response_ms for s in TABLE2_SPECS}
        modeled_order = sorted(modeled, key=modeled.get)
        published_order = sorted(published, key=published.get)
        assert modeled_order == published_order

    def test_row_parallel_faster_than_serial(self):
        serial_cycles = SensorArray(
            SensorSpec("s", "x", 50.0, 256, 256, 4e6, AddressingMode.SERIAL)
        ).cycles_for(CaptureWindow(0, 256, 0, 256))
        parallel_cycles = SensorArray(FLOCK_SENSOR).cycles_for(
            CaptureWindow(0, 256, 0, 256))
        assert parallel_cycles < serial_cycles / 10

    def test_window_scales_cycles(self):
        array = SensorArray(FLOCK_SENSOR)
        small = array.cycles_for(CaptureWindow(0, 64, 0, 64))
        large = array.cycles_for(CaptureWindow(0, 256, 0, 256))
        assert small < large
        # 64 rows of (1 conversion + 4 transfer) + setup.
        assert small == SETUP_CYCLES + 64 * (1 + 64 // 16)

    def test_empty_window_costs_nothing(self):
        assert SensorArray(FLOCK_SENSOR).cycles_for(
            CaptureWindow(10, 10, 0, 10)) == 0

    def test_transfer_lanes_zero_means_free_transfer(self):
        spec = SensorSpec("s", "x", 50.0, 128, 128, 1e6,
                          AddressingMode.ROW_PARALLEL, transfer_lanes=0)
        cycles = SensorArray(spec).cycles_for(CaptureWindow(0, 128, 0, 128))
        assert cycles == SETUP_CYCLES + 128


class TestSensorArrayCapture:
    def test_capture_binarizes_against_reference(self):
        spec = SensorSpec("s", "x", 50.0, 16, 16, 1e6, AddressingMode.SERIAL)
        array = SensorArray(spec, comparator_reference=0.5)
        cell_image = np.zeros((16, 16))
        cell_image[:8] = 0.9
        result = array.capture(cell_image)
        assert result.image[:8].all()
        assert not result.image[8:].any()

    def test_capture_window_subset(self):
        spec = SensorSpec("s", "x", 50.0, 16, 16, 1e6, AddressingMode.SERIAL)
        array = SensorArray(spec)
        result = array.capture(np.ones((4, 8)), CaptureWindow(4, 8, 2, 10))
        assert result.image.shape == (4, 8)
        assert result.cells_sensed == 32

    def test_shape_mismatch_rejected(self):
        array = SensorArray(FLOCK_SENSOR)
        with pytest.raises(ValueError):
            array.capture(np.zeros((10, 10)))

    def test_capture_takes_the_clamped_window_values(self):
        """A window scan reads the window's values, not the full array's."""
        spec = SensorSpec("s", "x", 50.0, 16, 16, 1e6, AddressingMode.SERIAL)
        array = SensorArray(spec)
        window = CaptureWindow(12, 20, -2, 6)  # clamps to rows 12-16, cols 0-6
        analog = np.zeros((4, 6))
        analog[1, 2] = 0.9
        result = array.capture(analog, window)
        assert result.window == CaptureWindow(12, 16, 0, 6)
        assert result.image.shape == (4, 6)
        assert result.image.sum() == 1 and result.image[1, 2]
        with pytest.raises(ValueError, match="capture window"):
            array.capture(np.zeros((16, 16)), window)

    def test_window_scan_matches_full_array_scan(self):
        """Scanning a window's values gives the full-array scan's bits
        there, and the same cycle count as the window alone."""
        spec = SensorSpec("s", "x", 50.0, 16, 16, 1e6, AddressingMode.SERIAL)
        array = SensorArray(spec)
        analog = np.random.default_rng(4).random((16, 16))
        full = array.capture(analog)
        for window in (CaptureWindow(4, 8, 2, 10),
                       CaptureWindow(12, 20, -2, 6),
                       CaptureWindow.full(spec)):
            clamped = window.clamp(16, 16)
            rows = slice(clamped.row0, clamped.row1)
            cols = slice(clamped.col0, clamped.col1)
            result = array.capture(analog[rows, cols], window)
            assert np.array_equal(result.image, full.image[rows, cols])
            assert result.cycles == array.cycles_for(clamped)

    def test_bad_reference_rejected(self):
        with pytest.raises(ValueError):
            SensorArray(FLOCK_SENSOR, comparator_reference=0.0)

    @given(st.integers(min_value=1, max_value=255),
           st.integers(min_value=1, max_value=255))
    @settings(max_examples=20, deadline=None)
    def test_cycles_monotone_in_window(self, rows, cols):
        array = SensorArray(FLOCK_SENSOR)
        smaller = array.cycles_for(CaptureWindow(0, rows, 0, cols))
        larger = array.cycles_for(CaptureWindow(0, rows + 1, 0, cols + 1))
        assert smaller <= larger


class TestReadoutPolicies:
    def test_three_policies_reported(self):
        window = CaptureWindow.around(128, 128, 60, 256, 256)
        timings = compare_policies(FLOCK_SENSOR, window)
        assert {t.policy for t in timings} == set(ReadoutPolicy)

    def test_paper_claim_ordering(self):
        """Parallel addressing beats serial; selective transfer beats both."""
        window = CaptureWindow.around(128, 128, 60, 256, 256)
        by_policy = {t.policy: t for t in compare_policies(FLOCK_SENSOR, window)}
        serial = by_policy[ReadoutPolicy.FULL_SERIAL].time_ms
        parallel = by_policy[ReadoutPolicy.FULL_ROW_PARALLEL].time_ms
        selective = by_policy[ReadoutPolicy.WINDOW_SELECTIVE].time_ms
        assert selective < parallel < serial
        assert serial / selective > 10.0

    def test_selective_senses_fewer_cells(self):
        window = CaptureWindow.around(128, 128, 40, 256, 256)
        by_policy = {t.policy: t for t in compare_policies(FLOCK_SENSOR, window)}
        assert by_policy[ReadoutPolicy.WINDOW_SELECTIVE].cells_sensed \
            < by_policy[ReadoutPolicy.FULL_SERIAL].cells_sensed


class TestPowerModel:
    @pytest.fixture()
    def capture(self):
        array = SensorArray(FLOCK_SENSOR)
        return array.capture(np.full((96, 96), 0.7),
                             CaptureWindow.around(128, 128, 48, 256, 256))

    def test_capture_energy_positive(self, capture):
        energy = PowerModel().capture_energy(capture)
        assert energy.sense_j > 0 and energy.transfer_j > 0
        assert energy.total_j == pytest.approx(
            energy.sense_j + energy.transfer_j + energy.leakage_j)

    def test_opportunistic_beats_always_on(self, capture):
        model = PowerModel()
        session_s = 600.0  # 10-minute session
        opportunistic = model.opportunistic_session_energy(
            [capture] * 120, session_s)  # one capture per 5 s
        always_on = model.always_on_session_energy(
            FLOCK_SENSOR, frame_time_s=1 / 30.0, session_s=session_s)
        assert always_on.total_j / opportunistic.total_j > 10.0

    def test_captures_cannot_exceed_session(self, capture):
        model = PowerModel()
        with pytest.raises(ValueError):
            model.opportunistic_session_energy([capture] * 10, 1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerModel(sense_nj_per_cell=-1)
        with pytest.raises(ValueError):
            PowerModel().always_on_session_energy(FLOCK_SENSOR, 0.0, 60.0)

    def test_energy_breakdown_addition(self):
        from repro.hardware import EnergyBreakdown
        a = EnergyBreakdown(1.0, 2.0, 3.0)
        b = EnergyBreakdown(0.5, 0.5, 0.5)
        assert (a + b).total_j == pytest.approx(7.5)
