"""Fingerprint sensor placement over the touchscreen (paper section IV-A).

The paper's second challenge is the cost/responsiveness trade-off: covering
the whole display with TFT fingerprint sensors is infeasible, so several
small sensors must be placed where touches actually land.  "It is possible
to design a sensor placement solution by analyzing touch distributions and
hot-spots so that even limited fingerprint sensor coverage can ensure as
many touches to fall within biometric enabled touchscreen regions as
possible."

This module provides:

- :class:`PlacedSensor` / :class:`SensorLayout` — geometry plus the
  touch-to-cell address translation the fingerprint controller performs;
- :func:`greedy_placement` — weighted-coverage maximization over a touch
  density map (the paper's hot-spot-driven approach);
- :func:`grid_placement` / :func:`random_placement` — density-blind
  baselines for benchmark E5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specs import SensorSpec

__all__ = [
    "PlacedSensor",
    "SensorLayout",
    "greedy_placement",
    "grid_placement",
    "random_placement",
]


@dataclass(frozen=True)
class PlacedSensor:
    """A sensor instance at a fixed position on the panel (mm, top-left)."""

    spec: SensorSpec
    x_mm: float
    y_mm: float
    label: str = ""

    @property
    def width_mm(self) -> float:
        """Physical sensor width on the panel."""
        return self.spec.width_mm

    @property
    def height_mm(self) -> float:
        """Physical sensor height on the panel."""
        return self.spec.height_mm

    def covers(self, x_mm: float, y_mm: float, margin_mm: float = 0.0) -> bool:
        """Does a touch at (x, y) land usably inside this sensor?

        ``margin_mm`` insets the rectangle: a fingertip contact patch of
        radius r only yields a full capture when its centre is at least r
        from the sensor edge.
        """
        return (
            self.x_mm + margin_mm <= x_mm <= self.x_mm + self.width_mm - margin_mm
            and self.y_mm + margin_mm <= y_mm <= self.y_mm + self.height_mm - margin_mm
        )

    def cell_address(self, x_mm: float, y_mm: float) -> tuple[int, int]:
        """Translate a panel position into this sensor's (row, col) cell.

        This is the address translation the fingerprint controller performs
        (Fig. 6: "Transform Touchscreen (x,y) to Fingerprint Sensor Row &
        Column Addresses").  Raises ValueError outside the sensor.
        """
        if not self.covers(x_mm, y_mm):
            raise ValueError("position outside sensor area")
        col = int((x_mm - self.x_mm) / self.width_mm * self.spec.cols)
        row = int((y_mm - self.y_mm) / self.height_mm * self.spec.rows)
        return (min(row, self.spec.rows - 1), min(col, self.spec.cols - 1))

    def overlaps(self, other: "PlacedSensor") -> bool:
        """Whether two placed sensors' rectangles intersect."""
        return not (
            self.x_mm + self.width_mm <= other.x_mm
            or other.x_mm + other.width_mm <= self.x_mm
            or self.y_mm + self.height_mm <= other.y_mm
            or other.y_mm + other.height_mm <= self.y_mm
        )


class SensorLayout:
    """A set of non-overlapping sensors on one panel."""

    def __init__(self, panel_width_mm: float, panel_height_mm: float,
                 sensors: list[PlacedSensor]) -> None:
        for sensor in sensors:
            if (sensor.x_mm < 0 or sensor.y_mm < 0
                    or sensor.x_mm + sensor.width_mm > panel_width_mm + 1e-9
                    or sensor.y_mm + sensor.height_mm > panel_height_mm + 1e-9):
                raise ValueError(f"sensor {sensor.label!r} extends off-panel")
        for i, a in enumerate(sensors):
            for b in sensors[i + 1:]:
                if a.overlaps(b):
                    raise ValueError(
                        f"sensors {a.label!r} and {b.label!r} overlap")
        self.panel_width_mm = float(panel_width_mm)
        self.panel_height_mm = float(panel_height_mm)
        self.sensors = list(sensors)

    def sensor_at(self, x_mm: float, y_mm: float,
                  margin_mm: float = 0.0) -> PlacedSensor | None:
        """The sensor usably covering a touch point, or None."""
        for sensor in self.sensors:
            if sensor.covers(x_mm, y_mm, margin_mm=margin_mm):
                return sensor
        return None

    def area_fraction(self) -> float:
        """Fraction of panel area covered by sensors."""
        covered = sum(s.width_mm * s.height_mm for s in self.sensors)
        return covered / (self.panel_width_mm * self.panel_height_mm)

    def capture_rate(self, touch_points_mm: np.ndarray,
                     margin_mm: float = 0.0) -> float:
        """Fraction of the given (n, 2) [x, y] touch points captured."""
        if len(touch_points_mm) == 0:
            return 0.0
        hits = sum(
            1 for x, y in touch_points_mm
            if self.sensor_at(float(x), float(y), margin_mm=margin_mm) is not None
        )
        return hits / len(touch_points_mm)


def _density_mass(density: np.ndarray, panel_w: float, panel_h: float,
                  sensor: PlacedSensor, margin_mm: float) -> float:
    """Probability mass of ``density`` usably covered by ``sensor``."""
    rows, cols = density.shape
    cell_w = panel_w / cols
    cell_h = panel_h / rows
    c0 = int(np.ceil((sensor.x_mm + margin_mm) / cell_w))
    c1 = int(np.floor((sensor.x_mm + sensor.width_mm - margin_mm) / cell_w))
    r0 = int(np.ceil((sensor.y_mm + margin_mm) / cell_h))
    r1 = int(np.floor((sensor.y_mm + sensor.height_mm - margin_mm) / cell_h))
    r0, r1 = max(r0, 0), min(r1, rows)
    c0, c1 = max(c0, 0), min(c1, cols)
    if r1 <= r0 or c1 <= c0:
        return 0.0
    return float(density[r0:r1, c0:c1].sum())


def greedy_placement(density: np.ndarray, panel_width_mm: float,
                     panel_height_mm: float, spec: SensorSpec,
                     n_sensors: int, margin_mm: float = 4.0) -> SensorLayout:
    """Greedy weighted-coverage placement.

    Iteratively places each sensor at the candidate position (on a 2 mm
    grid) capturing the most remaining touch-density mass, then
    zeroes the captured mass.  Greedy gives the usual (1 - 1/e)
    approximation for this submodular coverage objective — and in practice
    lands sensors squarely on the hot spots of Fig. 7.
    """
    if n_sensors < 1:
        raise ValueError("need at least one sensor")
    if density.ndim != 2:
        raise ValueError("density must be 2-D")
    density = density.astype(np.float64).copy()
    rows, cols = density.shape
    cell_w = panel_width_mm / cols
    cell_h = panel_height_mm / rows

    placed: list[PlacedSensor] = []
    xs = np.arange(0.0, panel_width_mm - spec.width_mm + 1e-9, 2.0)
    ys = np.arange(0.0, panel_height_mm - spec.height_mm + 1e-9, 2.0)
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("sensor larger than panel")

    for index in range(n_sensors):
        best_mass = -1.0
        best: PlacedSensor | None = None
        for y in ys:
            for x in xs:
                candidate = PlacedSensor(spec, float(x), float(y),
                                         label=f"greedy-{index}")
                if any(candidate.overlaps(existing) for existing in placed):
                    continue
                mass = _density_mass(density, panel_width_mm, panel_height_mm,
                                     candidate, margin_mm)
                if mass > best_mass:
                    best_mass, best = mass, candidate
        if best is None:
            break  # no non-overlapping position left
        placed.append(best)
        # Zero out captured mass so the next sensor seeks fresh hot-spots.
        c0 = max(int((best.x_mm) / cell_w), 0)
        c1 = min(int(np.ceil((best.x_mm + best.width_mm) / cell_w)), cols)
        r0 = max(int((best.y_mm) / cell_h), 0)
        r1 = min(int(np.ceil((best.y_mm + best.height_mm) / cell_h)), rows)
        density[r0:r1, c0:c1] = 0.0

    return SensorLayout(panel_width_mm, panel_height_mm, placed)


def grid_placement(panel_width_mm: float, panel_height_mm: float,
                   spec: SensorSpec, n_sensors: int) -> SensorLayout:
    """Density-blind baseline: sensors on a uniform grid."""
    if n_sensors < 1:
        raise ValueError("need at least one sensor")
    grid_cols = int(np.ceil(np.sqrt(n_sensors * panel_width_mm
                                    / panel_height_mm)))
    grid_rows = int(np.ceil(n_sensors / grid_cols))
    sensors = []
    index = 0
    for r in range(grid_rows):
        for c in range(grid_cols):
            if index >= n_sensors:
                break
            x = (c + 0.5) * panel_width_mm / grid_cols - spec.width_mm / 2
            y = (r + 0.5) * panel_height_mm / grid_rows - spec.height_mm / 2
            x = float(np.clip(x, 0, panel_width_mm - spec.width_mm))
            y = float(np.clip(y, 0, panel_height_mm - spec.height_mm))
            sensors.append(PlacedSensor(spec, x, y, label=f"grid-{index}"))
            index += 1
    return SensorLayout(panel_width_mm, panel_height_mm, sensors)


def random_placement(panel_width_mm: float, panel_height_mm: float,
                     spec: SensorSpec, n_sensors: int,
                     rng: np.random.Generator,
                     max_attempts: int = 1000) -> SensorLayout:
    """Density-blind baseline: uniform random non-overlapping positions."""
    if n_sensors < 1:
        raise ValueError("need at least one sensor")
    sensors: list[PlacedSensor] = []
    attempts = 0
    while len(sensors) < n_sensors and attempts < max_attempts:
        attempts += 1
        candidate = PlacedSensor(
            spec,
            float(rng.uniform(0, panel_width_mm - spec.width_mm)),
            float(rng.uniform(0, panel_height_mm - spec.height_mm)),
            label=f"random-{len(sensors)}",
        )
        if not any(candidate.overlaps(s) for s in sensors):
            sensors.append(candidate)
    if len(sensors) < n_sensors:
        raise RuntimeError(
            f"could only place {len(sensors)}/{n_sensors} sensors "
            f"after {max_attempts} attempts"
        )
    return SensorLayout(panel_width_mm, panel_height_mm, sensors)
