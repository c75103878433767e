"""Optical fingerprint sensing (paper Fig. 3 and section II-C).

The paper dismisses optical sensing for in-display use: "Optical
fingerprint sensing techniques require a lens system.  As such, it is hard
to implement in a small package at a low cost."  This model makes that
argument quantitative: an optical module is a camera + lens + LED stack
whose *thickness* is set by the lens focal geometry, whose *image quality*
suffers vignetting and defocus blur, and whose *exposure time* bounds
capture latency.  Ablation A5 compares it against the TFT capacitive
design on thickness, latency and captured image quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.fingerprint import Impression

__all__ = ["OpticalSensorSpec", "OpticalCapture", "OpticalSensor"]

#: Camera resolution (pixels per side of the square frame).
CAMERA_PIXELS = 320


@dataclass(frozen=True)
class OpticalSensorSpec:
    """Geometry and optics of one optical fingerprint module."""

    platen_mm: float = 16.0  # imaged fingerprint area (square side)
    working_distance_mm: float = 18.0  # platen to lens
    sensor_distance_mm: float = 14.0  # lens to camera die
    exposure_s: float = 0.030  # LED-lit exposure
    readout_s: float = 0.015  # camera readout
    defocus_blur_px: float = 1.2  # residual lens blur at best focus
    vignetting: float = 0.35  # corner illumination falloff fraction

    def __post_init__(self) -> None:
        if self.platen_mm <= 0:
            raise ValueError("geometry must be positive")
        if not 0.0 <= self.vignetting < 1.0:
            raise ValueError("vignetting must be in [0, 1)")
        if self.exposure_s <= 0 or self.readout_s < 0:
            raise ValueError("timings must be positive")

    @property
    def module_thickness_mm(self) -> float:
        """Stack height: platen glass + air gap + lens + die + board.

        The dominant term is the optical path (working + sensor distance),
        which is why optical modules cannot hide under a display stack.
        """
        platen_glass = 1.0
        lens_body = 2.0
        die_and_board = 1.5
        return (platen_glass + self.working_distance_mm + lens_body
                + self.sensor_distance_mm + die_and_board)

    @property
    def capture_time_s(self) -> float:
        """Exposure plus readout time for one frame."""
        return self.exposure_s + self.readout_s


@dataclass(frozen=True)
class OpticalCapture:
    """One optical frame: degraded image + cost."""

    image: np.ndarray
    time_s: float
    spec: OpticalSensorSpec


class OpticalSensor:
    """Renders what the camera sees of a finger pressed on the platen."""

    def __init__(self, spec: OpticalSensorSpec | None = None) -> None:
        self.spec = spec if spec is not None else OpticalSensorSpec()

    def capture(self, impression: Impression,
                rng: np.random.Generator) -> OpticalCapture:
        """Image the impression through the lens stack.

        Applies defocus blur (lens PSF), vignetting (LED + lens falloff)
        and shot noise scaled by the exposure.
        """
        spec = self.spec
        image = np.asarray(impression.image, dtype=np.float64)

        # Resample to the camera resolution.
        zoom = CAMERA_PIXELS / image.shape[0]
        sampled = ndimage.zoom(image, zoom, order=1)

        # Lens PSF.
        blurred = ndimage.gaussian_filter(sampled, spec.defocus_blur_px)

        # Vignetting: radial illumination falloff.
        rows, cols = blurred.shape
        rr, cc = np.meshgrid(np.linspace(-1, 1, rows),
                             np.linspace(-1, 1, cols), indexing="ij")
        radius_sq = rr**2 + cc**2
        gain = 1.0 - spec.vignetting * radius_sq / 2.0
        lit = 0.5 + (blurred - 0.5) * gain

        # Shot noise: shorter exposures are noisier.
        noise_std = 0.02 * np.sqrt(0.030 / spec.exposure_s)
        noisy = lit + rng.normal(0.0, noise_std, size=lit.shape)

        return OpticalCapture(image=np.clip(noisy, 0.0, 1.0),
                              time_s=spec.capture_time_s, spec=spec)
