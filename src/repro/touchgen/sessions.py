"""Session trace generation and touch-density aggregation.

A *session* is one user's interaction stream: a sequence of gestures on a
sequence of app screens, with think-time between interactions.  Sessions
drive every end-to-end experiment (E1, E3, E5, E6, E12) and, aggregated into
density maps, reproduce the paper's Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gestures import Gesture, make_swipe, make_tap, make_zoom
from .layouts import UiLayout, standard_layouts
from .users import UserTouchModel

__all__ = ["SessionConfig", "TouchTrace", "SessionGenerator", "density_map"]

#: Think time between interactions: exponential with this mean (seconds),
#: floored at the minimum.
THINK_TIME_MEAN_S = 1.2
THINK_TIME_MIN_S = 0.15


@dataclass(frozen=True)
class SessionConfig:
    """Knobs for one generated session."""

    n_interactions: int = 200
    layout_mix: tuple[tuple[str, float], ...] = (
        ("keyboard", 0.35), ("launcher", 0.15),
        ("browser", 0.40), ("bank-app", 0.10),
    )
    tap_fraction: float = 0.75
    swipe_fraction: float = 0.20  # remainder are zooms

    def __post_init__(self) -> None:
        if self.n_interactions < 1:
            raise ValueError("need at least one interaction")
        if not 0 <= self.tap_fraction <= 1 or not 0 <= self.swipe_fraction <= 1:
            raise ValueError("gesture fractions must be in [0, 1]")
        if self.tap_fraction + self.swipe_fraction > 1.0 + 1e-9:
            raise ValueError("tap + swipe fractions exceed 1")


@dataclass
class TouchTrace:
    """The output of one session: ordered gestures + bookkeeping."""

    user_id: str
    gestures: list[Gesture] = field(default_factory=list, init=False)
    #: The layout each gesture was made on.
    layout_names: list[str] = field(default_factory=list, init=False)

    @property
    def n_touches(self) -> int:
        """Number of gestures in the trace."""
        return len(self.gestures)

    def primary_points(self) -> np.ndarray:
        """(n, 2) array of [x_mm, y_mm] initial-contact points."""
        return np.array(
            [[g.primary_event.x_mm, g.primary_event.y_mm] for g in self.gestures]
        ).reshape(-1, 2)


class SessionGenerator:
    """Generates deterministic session traces for a user model."""

    def __init__(self, user: UserTouchModel) -> None:
        self.user = user
        self.layouts = standard_layouts()

    def _pick_layout(self, config: SessionConfig,
                     rng: np.random.Generator) -> UiLayout:
        names = [name for name, _ in config.layout_mix]
        weights = np.array([w for _, w in config.layout_mix])
        missing = [n for n in names if n not in self.layouts]
        if missing:
            raise KeyError(f"layout_mix references unknown layouts {missing}")
        chosen = rng.choice(len(names), p=weights / weights.sum())
        return self.layouts[names[int(chosen)]]

    def generate(self, config: SessionConfig, seed: int,
                 start_time_s: float = 0.0) -> TouchTrace:
        """Produce one session trace."""
        rng = np.random.default_rng(seed)
        trace = TouchTrace(user_id=self.user.user_id)
        now = start_time_s
        for _ in range(config.n_interactions):
            layout = self._pick_layout(config, rng)
            x, y, _ = self.user.sample_position(layout, rng)
            pressure, speed, duration = self.user.sample_dynamics(rng)
            draw = rng.random()
            limits = (layout.width_mm, layout.height_mm)
            if draw < config.tap_fraction:
                gesture = make_tap(now, x, y, pressure, duration,
                                   self.user.finger_id, speed_mm_s=speed)
            elif draw < config.tap_fraction + config.swipe_fraction:
                # Swipe mostly vertical (scrolling); stroke length and
                # duration follow the user's personal scroll habits.
                length, swipe_duration = self.user.sample_swipe(rng)
                angle = float(rng.normal(np.pi / 2, 0.3))
                end = (x + length * np.cos(angle), y - length * np.sin(angle))
                end = (float(np.clip(end[0], 0, limits[0])),
                       float(np.clip(end[1], 0, limits[1])))
                gesture = make_swipe(now, (x, y), end,
                                     duration_s=swipe_duration,
                                     pressure=pressure,
                                     finger_id=self.user.finger_id,
                                     panel_limits_mm=limits)
            else:
                gesture = make_zoom(now, (x, y),
                                    start_gap_mm=float(rng.uniform(10, 20)),
                                    end_gap_mm=float(rng.uniform(25, 45)),
                                    duration_s=float(rng.uniform(0.3, 0.7)),
                                    pressure=pressure,
                                    finger_id=self.user.finger_id,
                                    panel_limits_mm=limits)
            trace.gestures.append(gesture)
            trace.layout_names.append(layout.name)
            think = max(rng.exponential(THINK_TIME_MEAN_S), THINK_TIME_MIN_S)
            now = gesture.end_s + think
        return trace


def density_map(points_mm: np.ndarray, panel_width_mm: float,
                panel_height_mm: float, grid_rows: int = 47,
                grid_cols: int = 28, smooth: bool = True) -> np.ndarray:
    """Histogram touch points into a normalized density grid (Fig. 7).

    Returns an array of shape (grid_rows, grid_cols) summing to 1 (or all
    zeros if there are no points).  Optional box smoothing mimics finger
    contact area spreading each touch over neighbouring bins.
    """
    grid = np.zeros((grid_rows, grid_cols), dtype=np.float64)
    if len(points_mm) == 0:
        return grid
    cols = np.clip((points_mm[:, 0] / panel_width_mm * grid_cols).astype(int),
                   0, grid_cols - 1)
    rows = np.clip((points_mm[:, 1] / panel_height_mm * grid_rows).astype(int),
                   0, grid_rows - 1)
    np.add.at(grid, (rows, cols), 1.0)
    if smooth:
        from scipy import ndimage
        grid = ndimage.uniform_filter(grid, size=3)
    total = grid.sum()
    return grid / total if total > 0 else grid
