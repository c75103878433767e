"""Cycle-approximate TFT fingerprint sensor array (paper Fig. 2 and Fig. 4).

The array consists of capacitive sensing cells addressed by a line decoder
feeding a parallel-in/parallel-out shift register; every cell in the enabled
row converts simultaneously, each column ending in a comparator and a latch.
Latched bits are multiplexed out to the fingerprint controller, optionally
restricted to a column window (*selective data transfer*).

The model accounts cycles for:

- row enable + conversion: 1 cycle per enabled row (ROW_PARALLEL), or
  ``ceil(cells / cells_per_cycle)`` total (SERIAL);
- column transfer: ``ceil(window_cols / transfer_lanes)`` cycles per row for
  ROW_PARALLEL designs with a finite-width output mux (``transfer_lanes``),
  or zero when transfer overlaps conversion;
- fixed setup overhead (decoder settle, reference ramp).

``capture`` also *produces the data*: given the analog values of the
addressed window, it thresholds each cell against the comparator reference,
returning the binary fingerprint image exactly as the hardware would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import NOOP

from .specs import AddressingMode, SensorSpec

__all__ = ["CaptureWindow", "CaptureResult", "SensorArray"]

#: Fixed per-capture setup cycles (decoder settle + comparator reference).
SETUP_CYCLES = 8


@dataclass(frozen=True)
class CaptureWindow:
    """Rectangular cell region to scan: [row0, row1) x [col0, col1)."""

    row0: int
    row1: int
    col0: int
    col1: int

    def clamp(self, rows: int, cols: int) -> "CaptureWindow":
        """Intersect the window with the array bounds."""
        return CaptureWindow(
            max(self.row0, 0), min(self.row1, rows),
            max(self.col0, 0), min(self.col1, cols),
        )

    @property
    def n_rows(self) -> int:
        """Window height in cells."""
        return max(self.row1 - self.row0, 0)

    @property
    def n_cols(self) -> int:
        """Window width in cells."""
        return max(self.col1 - self.col0, 0)

    @property
    def n_cells(self) -> int:
        """Total cells in the window."""
        return self.n_rows * self.n_cols

    @property
    def is_empty(self) -> bool:
        """Whether the window contains no cells."""
        return self.n_cells == 0

    @staticmethod
    def full(spec: SensorSpec) -> "CaptureWindow":
        """The window covering the entire array."""
        return CaptureWindow(0, spec.rows, 0, spec.cols)

    @staticmethod
    def around(center_row: int, center_col: int, half_extent: int,
               rows: int, cols: int) -> "CaptureWindow":
        """Square window centred on a touch point, clamped to the array."""
        if half_extent < 1:
            raise ValueError("half_extent must be >= 1")
        return CaptureWindow(
            center_row - half_extent, center_row + half_extent,
            center_col - half_extent, center_col + half_extent,
        ).clamp(rows, cols)


@dataclass(frozen=True)
class CaptureResult:
    """One hardware capture: the binary image and its cost."""

    window: CaptureWindow
    image: np.ndarray  # bool array (window.n_rows, window.n_cols)
    cycles: int
    time_s: float
    cells_sensed: int
    bits_transferred: int


class SensorArray:
    """One TFT fingerprint sensor instance built to a :class:`SensorSpec`."""

    def __init__(self, spec: SensorSpec,
                 comparator_reference: float = 0.5) -> None:
        if not 0.0 < comparator_reference < 1.0:
            raise ValueError("comparator reference must be inside (0, 1)")
        self.spec = spec
        self.comparator_reference = float(comparator_reference)
        self.obs = NOOP

    def cycles_for(self, window: CaptureWindow) -> int:
        """Scan cycles for a window under this design's addressing mode."""
        window = window.clamp(self.spec.rows, self.spec.cols)
        if window.is_empty:
            return 0
        if self.spec.addressing is AddressingMode.SERIAL:
            conversion = -(-window.n_cells // self.spec.cells_per_cycle)
            return SETUP_CYCLES + conversion
        # ROW_PARALLEL: one conversion cycle per row, plus per-row column
        # shift-out when the output mux is narrower than the window.
        per_row_transfer = 0
        if self.spec.transfer_lanes > 0:
            per_row_transfer = -(-window.n_cols // self.spec.transfer_lanes)
        return SETUP_CYCLES + window.n_rows * (1 + per_row_transfer)

    def capture_time_s(self, window: CaptureWindow) -> float:
        """Scan time for a window at this design's clock."""
        return self.cycles_for(window) / self.spec.clock_hz

    def full_frame_response_ms(self) -> float:
        """Modeled full-array response time in ms (Table II comparison)."""
        return self.capture_time_s(CaptureWindow.full(self.spec)) * 1000.0

    def capture(self, analog: np.ndarray,
                window: CaptureWindow | None = None) -> CaptureResult:
        """Scan ``window`` (default: the whole array) of analog cell values.

        ``analog`` holds the float values of the window's cells only, in
        the clamped window's shape (n_rows, n_cols); the capture returns
        the comparator's binary output for them.
        """
        window = CaptureWindow.full(self.spec) if window is None else window
        window = window.clamp(self.spec.rows, self.spec.cols)
        if analog.shape != (window.n_rows, window.n_cols):
            raise ValueError(
                f"analog shape {analog.shape} does not match the capture "
                f"window ({window.n_rows}, {window.n_cols})"
            )
        with self.obs.tracer.span("sensor.capture") as span:
            cycles = self.cycles_for(window)
            result = CaptureResult(
                window=window,
                image=analog > self.comparator_reference,
                cycles=cycles,
                time_s=cycles / self.spec.clock_hz,
                cells_sensed=window.n_cells,
                bits_transferred=window.n_cells,
            )
            self._annotate_capture(span, result)
        self.obs.metrics.counter(
            "sensor.captures", help="hardware captures performed").inc()
        self.obs.metrics.counter(
            "sensor.cells_sensed", help="cells scanned across all "
            "captures").inc(result.cells_sensed)
        return result

    def _annotate_capture(self, span, result: CaptureResult) -> None:
        """Stamp the modeled cycle/time/energy cost onto a capture span."""
        if not self.obs.enabled:
            return
        from .power import PowerModel  # deferred: power imports this module
        energy = PowerModel().capture_energy(result)
        span.set_attribute("cycles", result.cycles)
        span.set_attribute("time_s", result.time_s)
        span.set_attribute("cells_sensed", result.cells_sensed)
        span.set_attribute("bits_transferred", result.bits_transferred)
        span.set_attribute("energy_j", energy.total_j)
