"""Capacitive touchscreen model (paper Fig. 1 and section II-B).

The panel is two ITO electrode layers giving row/column sensing; combining
the row and column results locates touches.  What matters architecturally is
(i) the ~4 ms location latency the paper quotes for commercial controllers,
and (ii) the quantization of touch positions to the electrode grid.  The
model exposes both plus simple multi-touch support.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TouchEvent", "LocatedTouch", "TouchPanel"]


@dataclass(frozen=True)
class TouchEvent:
    """A physical finger contact, in continuous panel coordinates (mm)."""

    time_s: float
    x_mm: float
    y_mm: float
    pressure: float = 0.5  # [0, 1]
    speed_mm_s: float = 0.0  # lateral finger speed during contact
    duration_s: float = 0.08  # contact dwell time
    finger_id: str = ""  # which enrolled/impostor finger touched

    def validate(self) -> None:
        """Range-check the event parameters; raises ValueError."""
        if not 0.0 <= self.pressure <= 1.0:
            raise ValueError("pressure must be in [0, 1]")
        if self.duration_s <= 0.0:
            raise ValueError("duration must be positive")
        if self.speed_mm_s < 0.0:
            raise ValueError("speed must be non-negative")


@dataclass(frozen=True)
class LocatedTouch:
    """A touch as reported by the panel controller."""

    event: TouchEvent
    grid_row: int
    grid_col: int
    x_mm: float  # quantized position
    y_mm: float
    report_time_s: float  # event time + panel response latency


class TouchPanel:
    """Projected-capacitive panel with a row/column electrode grid."""

    #: Controller latency from contact to touch report (seconds).
    RESPONSE_S = 0.004

    def __init__(self, width_mm: float = 56.0, height_mm: float = 94.0,
                 grid_rows: int = 40, grid_cols: int = 24) -> None:
        if width_mm <= 0 or height_mm <= 0:
            raise ValueError("panel dimensions must be positive")
        if grid_rows < 2 or grid_cols < 2:
            raise ValueError("electrode grid needs at least 2x2 lines")
        self.width_mm = float(width_mm)
        self.height_mm = float(height_mm)
        self.grid_rows = int(grid_rows)
        self.grid_cols = int(grid_cols)
        self.touches_seen = 0

    def contains(self, x_mm: float, y_mm: float) -> bool:
        """Whether a point lies on the panel."""
        return 0.0 <= x_mm <= self.width_mm and 0.0 <= y_mm <= self.height_mm

    def locate(self, event: TouchEvent) -> LocatedTouch:
        """Resolve a touch to the electrode grid and stamp report latency.

        Raises ValueError for contacts outside the panel — callers generate
        workloads in panel coordinates, so an out-of-range event is a bug.
        """
        event.validate()
        if not self.contains(event.x_mm, event.y_mm):
            raise ValueError(
                f"touch at ({event.x_mm:.1f}, {event.y_mm:.1f}) mm outside "
                f"panel {self.width_mm:.0f}x{self.height_mm:.0f} mm"
            )
        # Row lines span the height, column lines the width.
        row = min(int(event.y_mm / self.height_mm * self.grid_rows),
                  self.grid_rows - 1)
        col = min(int(event.x_mm / self.width_mm * self.grid_cols),
                  self.grid_cols - 1)
        # Quantized position = centre of the electrode crossing.
        quant_x = (col + 0.5) * self.width_mm / self.grid_cols
        quant_y = (row + 0.5) * self.height_mm / self.grid_rows
        self.touches_seen += 1
        return LocatedTouch(
            event=event, grid_row=row, grid_col=col,
            x_mm=quant_x, y_mm=quant_y,
            report_time_s=event.time_s + self.RESPONSE_S,
        )
