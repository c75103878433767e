"""Impression rendering: what a sensor actually sees of a master fingerprint.

The paper's TFT in-display sensors capture *partial* prints at the touch
point, degraded by motion, pressure and contact angle (the Fig. 6 quality
gate exists precisely because of this).  This module renders captures from a
master fingerprint under a parameterized capture condition:

- rigid displacement + rotation of the finger on the sensor,
- elastic skin distortion (smooth random displacement field),
- pressure (ridge thickening/thinning),
- motion blur (finger moving during the scan),
- additive sensor noise and dropout (dry skin / dirt),
- a circular contact region (partial capture) of given radius.

Bilinear sampling is a flat gather from the master that repeats
``ndimage.map_coordinates(order=1, mode="constant", cval=0.5)``'s
arithmetic term for term, so every render is bit-identical to one through
scipy, at only the pixels the render keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import ndimage

from .synthesis import MasterFingerprint

__all__ = ["CaptureCondition", "Impression", "render_impression"]


@lru_cache(maxsize=8)
def _centred_grid(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
    """Read-only centre-relative offset grids for one sensor frame shape.

    Every render of an (rows, cols) frame starts from the same centred
    pixel offsets and squared radii, so they are computed once per shape
    and shared; the arrays are frozen because callers must only read them.
    """
    out_r, out_c = np.meshgrid(np.arange(rows, dtype=np.float64),
                               np.arange(cols, dtype=np.float64), indexing="ij")
    rel_r = out_r - rows / 2.0
    rel_c = out_c - cols / 2.0
    rel_sq = rel_r**2 + rel_c**2
    for grid in (rel_r, rel_c, rel_sq):
        grid.setflags(write=False)
    return rel_r, rel_c, rel_sq


@dataclass(frozen=True)
class CaptureCondition:
    """Physical parameters of one finger-sensor contact."""

    center: tuple[float, float] | None = None  # (row, col) on master; None = centred
    radius: float | None = None  # contact radius in px; None = full print
    rotation_deg: float = 0.0
    translation: tuple[float, float] = (0.0, 0.0)  # extra rigid (row, col) shift
    distortion: float = 0.0  # elastic displacement amplitude in px
    pressure: float = 0.5  # 0 = feather-light (thin ridges), 1 = hard press
    motion_px: float = 0.0  # motion-blur extent during the scan
    noise: float = 0.05  # additive Gaussian sensor noise (std)
    dropout: float = 0.0  # fraction of pixels lost to dry skin / dirt

    def validate(self) -> None:
        """Range-check all condition parameters; raises ValueError."""
        if not 0.0 <= self.pressure <= 1.0:
            raise ValueError("pressure must be in [0, 1]")
        if not 0.0 <= self.dropout <= 1.0:
            raise ValueError("dropout must be in [0, 1]")
        if self.noise < 0.0 or self.motion_px < 0.0 or self.distortion < 0.0:
            raise ValueError("noise, motion and distortion must be non-negative")
        if self.radius is not None and self.radius <= 0.0:
            raise ValueError("radius must be positive when given")


@dataclass
class Impression:
    """One rendered capture: image + foreground mask + provenance."""

    finger_id: str
    image: np.ndarray
    mask: np.ndarray
    condition: CaptureCondition


def _elastic_displacement(shape: tuple[int, int], amplitude: float,
                          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Smooth random (d_row, d_col) displacement fields."""
    sigma = min(shape) / 6.0
    fields = []
    for _ in range(2):
        noise = rng.standard_normal(shape)
        noise = ndimage.gaussian_filter(noise, sigma=sigma)
        peak = np.abs(noise).max()
        fields.append(amplitude * noise / peak if peak > 1e-12 else noise * 0.0)
    return fields[0], fields[1]


def _bilinear(image: np.ndarray, src_r: np.ndarray,
              src_c: np.ndarray) -> np.ndarray:
    """Bilinear samples of a finite ``image`` at coordinates in ``[0, n - 1]``.

    The value is scipy's order-1 spline sum, term for term: weights
    ``w0 = 1 - frac`` and ``w1 = 1 - w0``, each corner ``p * wr * wc``
    added in the order 00, 01, 10, 11.  On the last row or column the far
    corner's weight is exactly 0, so whichever pixel its flat index lands
    on (the next row's first, or the last one under ``mode="clip"``) adds
    exactly 0, as the mirrored pixel scipy reads there does.

    The coordinate arrays are overwritten with weights: every temporary
    here is as large as the contact, and on a touch-sized frame each one
    more would cost page faults that outweigh the arithmetic.
    """
    stride = image.shape[1]
    flat = src_r.astype(np.intp)
    col = src_c.astype(np.intp)
    w_r = np.subtract(src_r, flat, out=src_r)
    w_c1 = np.subtract(src_c, col, out=src_c)
    flat *= stride
    flat += col
    del col
    np.subtract(1.0, w_r, out=w_r)  # the row's w0
    w_c0 = 1.0 - w_c1
    np.subtract(1.0, w_c0, out=w_c1)
    pixels = image.ravel()
    total = pixels.take(flat)
    total *= w_r
    total *= w_c0
    flat += 1
    term = pixels.take(flat, mode="clip")
    term *= w_r
    term *= w_c1
    total += term
    np.subtract(1.0, w_r, out=w_r)  # the row's w1
    flat += stride - 1
    for w_c in (w_c0, w_c1):
        pixels.take(flat, out=term, mode="clip")
        term *= w_r
        term *= w_c
        total += term
        flat += 1
    return total


def render_impression(master: MasterFingerprint, condition: CaptureCondition,
                      rng: np.random.Generator,
                      output_shape: tuple[int, int] | None = None) -> Impression:
    """Render one capture of ``master`` under ``condition``.

    The output frame is the sensor's own pixel array (defaults to the master
    shape); the finger region under ``center``/``radius`` is mapped into it.
    """
    condition.validate()
    rows, cols = master.shape if output_shape is None else output_shape
    center = condition.center
    if center is None:
        center = (master.shape[0] / 2.0, master.shape[1] / 2.0)

    # Build sampling coordinates: output pixel -> master pixel.  The
    # arithmetic below runs once per touch, so it works in place where the
    # operand is a fresh array — every reordering keeps IEEE-754 bit
    # identity (addition and multiplication commute exactly).
    rel_r, rel_c, rel_sq = _centred_grid(rows, cols)
    theta = np.deg2rad(condition.rotation_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    src_r = rel_r * cos_t
    src_r += center[0] + condition.translation[0]
    src_r -= rel_c * sin_t
    src_c = rel_r * sin_t
    src_c += center[1] + condition.translation[1]
    src_c += rel_c * cos_t

    if condition.distortion > 0.0:
        d_r, d_c = _elastic_displacement((rows, cols), condition.distortion, rng)
        src_r += d_r
        src_c += d_c

    # Contact mask: circular patch (partial print) or everything that landed
    # inside the master area (full print).
    inside = src_r >= 0
    inside &= src_r <= master.shape[0] - 1
    inside &= src_c >= 0
    inside &= src_c <= master.shape[1] - 1
    mask = inside
    if condition.radius is not None:
        mask = inside & (rel_sq <= condition.radius**2)

    pressure_bias = (condition.pressure - 0.5) * 0.5

    if condition.motion_px <= 0.0:
        # Masked fast path.  Every pixel outside the contact mask ends up
        # at exactly 0.5 (the final masking step), and without motion blur
        # every post-sampling operation is elementwise, so only the masked
        # pixels need sampling and processing at all.  Each pixel is
        # interpolated independently, so the gathered values are
        # bit-identical to a full-frame render; the two rng fields are
        # still drawn at full frame shape to keep the stream identical to
        # the full-frame path.
        vals = _bilinear(master.image, src_r[mask], src_c[mask])
        shifted = vals - 0.5
        shifted *= pressure_bias
        shifted *= 2.0
        shifted += vals
        vals = np.clip(shifted, 0.0, 1.0, out=shifted)
        if condition.noise > 0.0:
            noise = rng.normal(0.0, condition.noise, size=(rows, cols))
            vals += noise[mask]
        if condition.dropout > 0.0:
            lost = rng.random((rows, cols)) < condition.dropout
            np.copyto(vals, 0.5, where=lost[mask])
        np.clip(vals, 0.0, 1.0, out=vals)
        image = np.full((rows, cols), 0.5)
        image[mask] = vals
        return Impression(finger_id=master.finger_id, image=image, mask=mask,
                          condition=condition)

    # Motion blur mixes neighbours, so the whole frame is sampled; a pixel
    # that landed outside the master reads the constant 0.5.
    image = np.full((rows, cols), 0.5)
    image[inside] = _bilinear(master.image, src_r[inside], src_c[inside])

    # Pressure: shift the ridge/valley duty cycle.  Hard presses flatten
    # ridges outward (thicker), light touches record only ridge crests.
    shifted = image - 0.5
    shifted *= pressure_bias
    shifted *= 2.0
    shifted += image
    image = np.clip(shifted, 0.0, 1.0, out=shifted)

    # Anisotropic blur along a random motion direction.
    angle = rng.uniform(0.0, np.pi)
    length = max(int(round(condition.motion_px)), 1)
    kernel = np.zeros((2 * length + 1, 2 * length + 1))
    for step in np.linspace(-length, length, 2 * length + 1):
        kr = int(round(length + step * np.sin(angle)))
        kc = int(round(length + step * np.cos(angle)))
        kernel[kr, kc] = 1.0
    kernel /= kernel.sum()
    image = ndimage.convolve(image, kernel, mode="nearest")

    if condition.noise > 0.0:
        noise = rng.normal(0.0, condition.noise, size=image.shape)
        noise += image
        image = noise

    if condition.dropout > 0.0:
        lost = rng.random(image.shape) < condition.dropout
        np.copyto(image, 0.5, where=lost)

    np.clip(image, 0.0, 1.0, out=image)
    np.copyto(image, 0.5, where=~mask)
    return Impression(finger_id=master.finger_id, image=image, mask=mask,
                      condition=condition)
