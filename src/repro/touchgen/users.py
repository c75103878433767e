"""Per-user touch behaviour models.

Each user has a stable personal signature: a dominant thumb/hand (shifting
touches toward one side), a systematic aim bias and scatter when hitting UI
elements, and personal pressure/speed/dwell distributions.  Sampled over the
standard layouts, three such users reproduce the structure of the paper's
Fig. 7: individually peaked, mutually overlapping touch densities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layouts import UiElement, UiLayout

__all__ = ["UserTouchModel", "example_users"]

#: Spreads every user shares; users differ in the means they draw around.
REACH_SHIFT_MM = 3.0  # thumb-side shift magnitude
PRESSURE_STD = 0.12
DWELL_STD_S = 0.03
SPEED_STD_MM_S = 6.0
SWIPE_LENGTH_STD_MM = 5.0
SWIPE_DURATION_STD_S = 0.08


@dataclass
class UserTouchModel:
    """One user's touch-generation parameters."""

    user_id: str
    finger_id: str  # which enrolled finger this user touches with
    handedness: str = "right"  # "right" | "left"
    aim_bias_mm: tuple[float, float] = (0.0, 0.0)  # systematic (dx, dy)
    aim_scatter_mm: float = 1.8  # random aim spread (std)
    pressure_mean: float = 0.5
    dwell_mean_s: float = 0.09
    speed_mean_mm_s: float = 8.0  # lateral movement during contact
    swipe_length_mean_mm: float = 25.0  # habitual scroll stroke length
    swipe_duration_mean_s: float = 0.30
    extra_hotspots: list[tuple[float, float, float]] = field(default_factory=list)
    # (x_mm, y_mm, weight): personal habitual touch spots (e.g. scroll thumb
    # rest position) blended with UI-driven touches.

    def __post_init__(self) -> None:
        if self.handedness not in ("right", "left"):
            raise ValueError("handedness must be 'right' or 'left'")
        if self.aim_scatter_mm < 0:
            raise ValueError("aim scatter must be non-negative")
        if not 0 <= self.pressure_mean <= 1:
            raise ValueError("pressure mean must be in [0, 1]")

    def _hand_shift(self) -> float:
        return REACH_SHIFT_MM if self.handedness == "right" \
            else -REACH_SHIFT_MM

    def sample_position(self, layout: UiLayout,
                        rng: np.random.Generator) -> tuple[float, float, UiElement | None]:
        """Draw one touch position on ``layout``.

        Returns (x_mm, y_mm, element) where element is the targeted UI
        element, or None when the touch came from a personal hot-spot.
        """
        hotspot_weight = sum(w for _, _, w in self.extra_hotspots)
        ui_weight = sum(e.weight for e in layout.elements)
        total = hotspot_weight + ui_weight
        if rng.random() < hotspot_weight / total:
            weights = np.array([w for _, _, w in self.extra_hotspots])
            index = int(rng.choice(len(self.extra_hotspots),
                                   p=weights / weights.sum()))
            hx, hy, _ = self.extra_hotspots[index]
            x = hx + rng.normal(0.0, self.aim_scatter_mm)
            y = hy + rng.normal(0.0, self.aim_scatter_mm)
            element = None
        else:
            element = layout.sample_element(rng)
            cx, cy = element.center
            x = (cx + self.aim_bias_mm[0] + self._hand_shift() * 0.3
                 + rng.normal(0.0, self.aim_scatter_mm)
                 + rng.uniform(-element.width_mm / 4, element.width_mm / 4))
            y = (cy + self.aim_bias_mm[1]
                 + rng.normal(0.0, self.aim_scatter_mm)
                 + rng.uniform(-element.height_mm / 4, element.height_mm / 4))
        x = float(np.clip(x, 0.0, layout.width_mm))
        y = float(np.clip(y, 0.0, layout.height_mm))
        return x, y, element

    def sample_dynamics(self, rng: np.random.Generator) -> tuple[float, float, float]:
        """Draw (pressure, speed_mm_s, duration_s) for one touch."""
        pressure = float(np.clip(
            rng.normal(self.pressure_mean, PRESSURE_STD), 0.05, 0.95))
        speed = float(max(rng.normal(self.speed_mean_mm_s, SPEED_STD_MM_S),
                          0.0))
        duration = float(max(rng.normal(self.dwell_mean_s, DWELL_STD_S),
                             0.02))
        return pressure, speed, duration

    def sample_swipe(self, rng: np.random.Generator) -> tuple[float, float]:
        """Draw (stroke length mm, stroke duration s) for one swipe.

        Scroll habits are strongly personal (short flicks vs long drags),
        which is exactly what behavioural gesture authentication keys on.
        """
        length = float(np.clip(
            rng.normal(self.swipe_length_mean_mm, SWIPE_LENGTH_STD_MM),
            8.0, 60.0))
        duration = float(np.clip(
            rng.normal(self.swipe_duration_mean_s, SWIPE_DURATION_STD_S),
            0.08, 1.0))
        return length, duration


def example_users() -> list[UserTouchModel]:
    """Three users mirroring the paper's Fig. 7 study participants."""
    return [
        UserTouchModel(
            user_id="user1", finger_id="user1-right-thumb",
            handedness="right", aim_bias_mm=(0.6, -0.4),
            aim_scatter_mm=1.5, pressure_mean=0.55,
            swipe_length_mean_mm=26.0, swipe_duration_mean_s=0.28,
            extra_hotspots=[(48.0, 60.0, 3.0)],  # right-edge scroll rest
        ),
        UserTouchModel(
            user_id="user2", finger_id="user2-right-index",
            handedness="right", aim_bias_mm=(-0.3, 0.5),
            aim_scatter_mm=2.2, pressure_mean=0.45,
            dwell_mean_s=0.12, speed_mean_mm_s=14.0,
            swipe_length_mean_mm=38.0, swipe_duration_mean_s=0.18,
            extra_hotspots=[(28.0, 80.0, 2.0)],  # bottom-centre (spacebar)
        ),
        UserTouchModel(
            user_id="user3", finger_id="user3-left-thumb",
            handedness="left", aim_bias_mm=(0.0, 0.0),
            aim_scatter_mm=1.8, pressure_mean=0.62,
            speed_mean_mm_s=5.0,
            swipe_length_mean_mm=16.0, swipe_duration_mean_s=0.42,
            extra_hotspots=[(10.0, 64.0, 3.0)],  # left-edge scroll rest
        ),
    ]
