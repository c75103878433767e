"""Mobile UI layouts that anchor touch workloads.

The paper's Fig. 7 touch distributions come from users interacting with real
apps on an HTC smartphone; the density structure (peaked hot-spots, strong
cross-user overlap) is produced by the UI itself — keyboards, nav bars and
launcher grids concentrate touches.  Each layout here is a set of named
rectangular elements with relative usage weights; user models sample
elements by weight and place touches inside them with per-user bias.

Panel coordinates are millimetres, origin top-left, matching
:class:`repro.hardware.TouchPanel` (default 56 x 94 mm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["UiElement", "UiLayout", "standard_layouts"]


@dataclass(frozen=True)
class UiElement:
    """A tappable region: rect in mm + relative usage weight."""

    name: str
    x_mm: float
    y_mm: float
    width_mm: float
    height_mm: float
    weight: float = 1.0
    critical: bool = False  # paper countermeasure: critical buttons can be
    #                         pinned over sensor-covered regions

    def __post_init__(self) -> None:
        if self.width_mm <= 0 or self.height_mm <= 0:
            raise ValueError(f"element {self.name!r} has non-positive size")
        if self.weight < 0:
            raise ValueError(f"element {self.name!r} has negative weight")

    @property
    def center(self) -> tuple[float, float]:
        """Centre point of the element, in mm."""
        return (self.x_mm + self.width_mm / 2, self.y_mm + self.height_mm / 2)


@dataclass(frozen=True)
class UiLayout:
    """One app screen."""

    name: str
    width_mm: float
    height_mm: float
    elements: tuple[UiElement, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError(f"layout {self.name!r} has no elements")
        for element in self.elements:
            if (element.x_mm < 0 or element.y_mm < 0
                    or element.x_mm + element.width_mm > self.width_mm + 1e-9
                    or element.y_mm + element.height_mm > self.height_mm + 1e-9):
                raise ValueError(
                    f"element {element.name!r} extends outside layout "
                    f"{self.name!r}")

    def sample_element(self, rng: np.random.Generator) -> UiElement:
        """Draw an element proportionally to its usage weight."""
        weights = np.array([e.weight for e in self.elements])
        total = weights.sum()
        if total <= 0:
            raise ValueError(f"layout {self.name!r} has all-zero weights")
        index = rng.choice(len(self.elements), p=weights / total)
        return self.elements[int(index)]


def _keyboard_elements(width: float, y0: float) -> list[UiElement]:
    """A soft keyboard: a 4 x 10 key grid at the bottom of the screen."""
    key_w = width / 10
    key_h = 8.0
    elements = []
    for r in range(4):
        for k in range(10):
            elements.append(UiElement(
                name=f"key-{r}-{k}",
                x_mm=k * key_w, y_mm=y0 + r * key_h,
                width_mm=key_w, height_mm=key_h,
                # centre keys (home row letters, space) dominate usage
                weight=2.0 if 2 <= k <= 7 and r in (1, 2, 3) else 0.7,
            ))
    return elements


def standard_layouts() -> dict[str, UiLayout]:
    """The screens used throughout the benchmarks, on a 56 x 94 mm panel."""
    width_mm, height_mm = 56.0, 94.0
    keyboard = UiLayout(
        name="keyboard", width_mm=width_mm, height_mm=height_mm,
        elements=tuple(
            [UiElement("text-area", 2, 6, width_mm - 4, 30, weight=1.5)]
            + _keyboard_elements(width_mm, y0=height_mm - 34)
        ),
    )
    launcher = UiLayout(
        name="launcher", width_mm=width_mm, height_mm=height_mm,
        elements=tuple(
            [UiElement(f"icon-{r}-{c}",
                       x_mm=4 + c * (width_mm - 8) / 4,
                       y_mm=10 + r * 16,
                       width_mm=(width_mm - 8) / 4 - 1, height_mm=12,
                       weight=3.0 if (r, c) in ((4, 0), (4, 1), (4, 2), (4, 3))
                       else 1.0)  # dock row used most
             for r in range(5) for c in range(4)]
        ),
    )
    browser = UiLayout(
        name="browser", width_mm=width_mm, height_mm=height_mm,
        elements=(
            UiElement("url-bar", 2, 2, width_mm - 12, 7, weight=1.0),
            UiElement("content", 2, 12, width_mm - 4, 62, weight=5.0),
            UiElement("back", 2, height_mm - 12, 12, 9, weight=2.0),
            UiElement("tabs", width_mm - 16, height_mm - 12, 12, 9, weight=1.0),
        ),
    )
    # Critical buttons are deliberately placed over the default device's
    # sensor band (paper countermeasure 1: "a system can display critical
    # buttons or menus over biometric enabled touchscreen regions").
    bank_app = UiLayout(
        name="bank-app", width_mm=width_mm, height_mm=height_mm,
        elements=(
            UiElement("balance", 4, 8, width_mm - 8, 16, weight=1.0),
            UiElement("transfer", 8, 60, 10, 6, weight=2.0, critical=True),
            UiElement("pay", 40, 60, 10, 6, weight=2.0, critical=True),
            UiElement("confirm", 24, 75, 10, 6, weight=3.0, critical=True),
        ),
    )
    unlock = UiLayout(
        name="unlock", width_mm=width_mm, height_mm=height_mm,
        elements=(
            UiElement("unlock-button", width_mm / 2 - 8, 73, 16, 14,
                      weight=1.0, critical=True),
        ),
    )
    return {layout.name: layout for layout in
            (keyboard, launcher, browser, bank_app, unlock)}
