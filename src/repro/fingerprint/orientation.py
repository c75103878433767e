"""Ridge orientation fields: estimation from images and synthetic generation.

Orientation fields are the backbone of both synthesis (the Gabor growth
process follows the field) and enhancement (filters are steered by the
estimated field).  Orientations are ridge *directions* in radians in
[0, pi): an orientation field is a pi-periodic quantity, so all averaging is
done in the doubled-angle domain.  Minutiae extraction reads the estimated
field only at its kept detections, and evaluates it at those pixels alone,
bit-identical to the full field.

Synthetic fields use the Sherlock-Monro zero-pole model: the orientation at
point z is half the argument of a rational function with zeros at loop
singularities and poles at delta singularities, which generates the four
classic pattern classes (arch, left loop, right loop, whorl).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .image_ops import RidgeStatistics, _structure_tensor

__all__ = [
    "estimate_orientation",
    "orientation_coherence",
    "FingerprintClass",
    "SyntheticOrientationField",
]


def _ridge_angle(sin2: np.ndarray, cos2: np.ndarray) -> np.ndarray:
    """Ridge orientation in [0, pi) from the smoothed doubled-angle field."""
    # Doubled-angle representation of the *gradient* orientation.
    gradient_angle = 0.5 * np.arctan2(sin2, cos2)
    # Ridge orientation is perpendicular to the gradient.
    return np.mod(gradient_angle + np.pi / 2.0, np.pi)


def estimate_orientation(image: np.ndarray, block: int = 12,
                         smooth_sigma: float = 2.0) -> np.ndarray:
    """Gradient-based least-squares orientation estimation (per pixel).

    Returns an array of ridge orientations in [0, pi).  Uses the standard
    structure-tensor approach: the ridge orientation is perpendicular to the
    dominant gradient orientation, computed by smoothing the doubled-angle
    gradient products ``2 U(gx gy)`` and ``U(gx^2) - U(gy^2)``.
    """
    sin2, cos2, gyy = _structure_tensor(np.asarray(image, dtype=np.float64),
                                        block)
    sin2 *= 2.0
    cos2 -= gyy
    return _ridge_angle(ndimage.gaussian_filter(sin2, smooth_sigma),
                        ndimage.gaussian_filter(cos2, smooth_sigma))


def _reflect(index: np.ndarray, length: int) -> np.ndarray:
    """scipy's ``reflect`` boundary (``dcba|abcd|dcba``) as an index map.

    The extension repeats with period ``2 * length``, so offsets more
    than one frame past an edge map too.
    """
    index = np.mod(index, 2 * length)
    return np.where(index < length, index, 2 * length - 1 - index)


def _gaussian_weights(sigma: float, radius: int) -> np.ndarray:
    """The kernel ``gaussian_filter1d`` correlates with, as scipy forms it
    (symmetric, so its reversal is itself)."""
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    return weights / weights.sum()


def _centre_of_gaussian(lines: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``gaussian_filter1d`` along the last axis, at its centre only.

    scipy correlates a symmetric kernel as ``x[0] w[0]`` plus, outermost
    pair first, ``(x[-k] + x[k]) w[k]``; this is that sum, term for term
    (``add.accumulate`` adds in sequence), so each value is
    bit-identical to the full filter's centre.
    """
    radius = len(weights) // 2
    terms = np.empty(lines.shape[:-1] + (radius + 1,))
    np.multiply(lines[..., radius], weights[radius], out=terms[..., 0])
    np.add(lines[..., :radius], lines[..., :radius:-1], out=terms[..., 1:])
    terms[..., 1:] *= weights[:radius]
    return np.add.accumulate(terms, axis=-1)[..., -1]


def _orientation_at(statistics: RidgeStatistics, rows: np.ndarray,
                    cols: np.ndarray, smooth_sigma: float = 2.0) -> np.ndarray:
    """``estimate_orientation(statistics.image, statistics.block,
    smooth_sigma)[rows, cols]``.

    The structure tensor comes box-filtered over the window; the
    doubled-angle products, the Gaussian and the angle run only at the
    queried pixels.  Each pixel's Gaussian window is gathered with the
    ``reflect`` boundary of the full-window filter, smoothed down its
    columns at the centre row only, then across that row at the centre
    only, in the order of scipy's own sum.  The centre reads exactly the
    values the full-window filter reads at that pixel, so each result is
    bit-identical.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.size == 0:
        return np.empty(0)
    # gaussian_filter1d's own reach: truncate=4 standard deviations.
    radius = int(4.0 * float(smooth_sigma) + 0.5)
    weights = _gaussian_weights(smooth_sigma, radius)
    offsets = np.arange(-radius, radius + 1)
    height, width = statistics.gxy.shape
    # Flat indices laid out (pixel, column offset, row offset), so the
    # first pass runs along the last axis.
    flat = (_reflect(rows[:, None] + offsets, height) * width)[:, None, :] \
        + _reflect(cols[:, None] + offsets, width)[:, :, None]
    products = np.empty((2,) + flat.shape)
    np.multiply(statistics.gxy.take(flat), 2.0, out=products[0])
    np.subtract(statistics.gxx.take(flat), statistics.gyy.take(flat),
                out=products[1])
    across = _centre_of_gaussian(_centre_of_gaussian(products, weights),
                                 weights)
    return _ridge_angle(across[0], across[1])


def _coherence(gxy: np.ndarray, gxx: np.ndarray,
               gyy: np.ndarray) -> np.ndarray:
    """``sqrt((gxx - gyy)^2 + 4 gxy^2) / (gxx + gyy)`` in [0, 1], 0 where
    the denominator vanishes."""
    numerator = gxx - gyy
    numerator *= numerator
    denominator = gxy * gxy
    denominator *= 4.0
    numerator += denominator
    np.sqrt(numerator, out=numerator)
    np.add(gxx, gyy, out=denominator)
    positive = denominator > 1e-12
    with np.errstate(invalid="ignore", divide="ignore"):
        numerator /= denominator
    np.logical_not(positive, out=positive)
    np.copyto(numerator, 0.0, where=positive)
    return np.clip(numerator, 0.0, 1.0, out=numerator)


def orientation_coherence(image: np.ndarray, block: int = 12) -> np.ndarray:
    """Per-pixel orientation coherence in [0, 1].

    Coherence ~1 means locally parallel ridges (good quality); ~0 means
    isotropic texture (smudge, noise, or singular point).  Used by the
    quality gate of the Fig. 6 pipeline.
    """
    return _coherence(*_structure_tensor(np.asarray(image, dtype=np.float64),
                                         block))


@dataclass(frozen=True)
class FingerprintClass:
    """A Henry-class pattern: loop (core) and delta singularity positions.

    Positions are in normalized coordinates: (row, col) with the image
    spanning [0, 1] x [0, 1].
    """

    name: str
    loops: tuple[tuple[float, float], ...]
    deltas: tuple[tuple[float, float], ...]

    @staticmethod
    def arch() -> "FingerprintClass":
        # A plain arch has no true singularities; we approximate the gentle
        # rise with a far-below-image loop/delta pair, a standard trick.
        """The plain-arch pattern class."""
        return FingerprintClass("arch", loops=((1.45, 0.5),), deltas=((1.8, 0.5),))

    @staticmethod
    def left_loop() -> "FingerprintClass":
        """The left-loop pattern class."""
        return FingerprintClass("left_loop", loops=((0.42, 0.48),), deltas=((0.78, 0.74),))

    @staticmethod
    def right_loop() -> "FingerprintClass":
        """The right-loop pattern class."""
        return FingerprintClass("right_loop", loops=((0.42, 0.52),), deltas=((0.78, 0.26),))

    @staticmethod
    def whorl() -> "FingerprintClass":
        """The whorl pattern class (two loops, two deltas)."""
        return FingerprintClass(
            "whorl",
            loops=((0.38, 0.42), (0.48, 0.58)),
            deltas=((0.80, 0.20), (0.80, 0.80)),
        )

    @staticmethod
    def all_classes() -> tuple["FingerprintClass", ...]:
        """All four Henry pattern classes."""
        return (
            FingerprintClass.arch(),
            FingerprintClass.left_loop(),
            FingerprintClass.right_loop(),
            FingerprintClass.whorl(),
        )


class SyntheticOrientationField:
    """Sherlock-Monro zero-pole orientation field with smooth perturbation.

    The field at complex point ``z`` is::

        theta(z) = base + 0.5 * (sum_i arg(z - loop_i) - sum_j arg(z - delta_j))

    plus a band-limited random perturbation that makes each synthetic finger
    unique within its class.
    """

    def __init__(self, pattern: FingerprintClass, shape: tuple[int, int],
                 rng: np.random.Generator, base_angle: float = 0.0,
                 perturbation: float = 0.25) -> None:
        if shape[0] < 8 or shape[1] < 8:
            raise ValueError("orientation field needs at least an 8x8 grid")
        self.pattern = pattern
        self.shape = shape
        rows, cols = shape
        r = np.linspace(0.0, 1.0, rows)[:, None]
        c = np.linspace(0.0, 1.0, cols)[None, :]
        z = c + 1j * r

        angle = np.full(shape, float(base_angle))
        for lr, lc in pattern.loops:
            angle += 0.5 * np.angle(z - (lc + 1j * lr))
        for dr, dc in pattern.deltas:
            angle -= 0.5 * np.angle(z - (dc + 1j * dr))

        if perturbation > 0.0:
            noise = rng.standard_normal(shape)
            noise = ndimage.gaussian_filter(noise, sigma=min(rows, cols) / 8.0)
            peak = np.abs(noise).max()
            if peak > 1e-12:
                angle = angle + perturbation * noise / peak

        self.field = np.mod(angle, np.pi)
