"""E12 — section III-A claim: "Such design of opportunistic capture of
fingerprint reduces power consumption overhead."

Prices a 10-minute interactive session under two sensor disciplines:
always-on full-frame scanning vs the paper's opportunistic
touch-triggered window captures, across touch rates.
"""

import numpy as np

from repro.eval import format_si, render_table
from repro.hardware import (
    FLOCK_SENSOR_WIDE,
    CaptureWindow,
    PowerModel,
    SensorArray,
)
from .conftest import emit

SESSION_S = 600.0
TOUCH_RATES_PER_MIN = (2, 6, 12, 30)
N_SENSORS = 4  # the default device layout


def test_power(benchmark):
    model = PowerModel()
    array = SensorArray(FLOCK_SENSOR_WIDE)
    window = CaptureWindow.around(128, 192, 80, FLOCK_SENSOR_WIDE.rows,
                                  FLOCK_SENSOR_WIDE.cols)
    touch_capture = array.capture(
        np.full((window.n_rows, window.n_cols), 0.6), window)

    def sweep():
        results = {}
        for rate in TOUCH_RATES_PER_MIN:
            n_captures = int(rate * SESSION_S / 60.0)
            opportunistic = model.opportunistic_session_energy(
                [touch_capture] * n_captures, SESSION_S)
            results[rate] = opportunistic
        always_on = model.always_on_session_energy(
            FLOCK_SENSOR_WIDE, frame_time_s=1 / 30.0, session_s=SESSION_S)
        return results, always_on

    results, always_on_one = benchmark(sweep)
    always_on_total = always_on_one.total_j * N_SENSORS

    rows = []
    for rate in TOUCH_RATES_PER_MIN:
        # Opportunistic: idle leakage applies to all sensors; captures only
        # happen on the touched sensor.
        opportunistic_total = (results[rate].total_j
                               + always_on_one.leakage_j * 0.0
                               + (N_SENSORS - 1) * SESSION_S
                               * model.IDLE_LEAKAGE_UW * 1e-6)
        rows.append([
            f"{rate}/min",
            format_si(opportunistic_total, "J"),
            format_si(always_on_total, "J"),
            f"{always_on_total / opportunistic_total:.0f}x",
        ])
    table = render_table(
        ["touch rate", "opportunistic (paper)", "always-on 30 fps",
         "saving"],
        rows,
        title=f"E12: sensor energy over a {SESSION_S / 60:.0f}-minute "
              f"session ({N_SENSORS} sensors)")
    extra = (f"\nper-capture energy: "
             f"{format_si(model.capture_energy(touch_capture).total_j, 'J')} "
             f"(window {window.n_rows}x{window.n_cols} cells, "
             f"{touch_capture.time_s * 1000:.2f} ms)")
    emit("E12_power", table + extra)

    # Shape assertions: opportunistic wins by >10x at every realistic rate,
    # and the saving shrinks as the touch rate grows.
    savings = []
    for rate in TOUCH_RATES_PER_MIN:
        opportunistic_total = (results[rate].total_j
                               + (N_SENSORS - 1) * SESSION_S
                               * model.IDLE_LEAKAGE_UW * 1e-6)
        saving = always_on_total / opportunistic_total
        savings.append(saving)
        assert saving > 10.0
    assert savings == sorted(savings, reverse=True)
