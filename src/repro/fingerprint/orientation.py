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

__all__ = [
    "estimate_orientation",
    "orientation_coherence",
    "FingerprintClass",
    "SyntheticOrientationField",
]


def _gradient_pair(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.gradient(image)`` for the 2-D unit-spacing case.

    Central differences in the interior, one-sided at the edges — the exact
    arithmetic :func:`np.gradient` performs, minus its per-call axis/spacing
    bookkeeping, so the outputs are bit-identical and the hot quality path
    (one call per rendered touch) avoids the generic machinery.
    """
    gy = np.empty_like(image)
    gx = np.empty_like(image)
    gy[1:-1] = (image[2:] - image[:-2]) / 2.0
    gy[0] = image[1] - image[0]
    gy[-1] = image[-1] - image[-2]
    gx[:, 1:-1] = (image[:, 2:] - image[:, :-2]) / 2.0
    gx[:, 0] = image[:, 1] - image[:, 0]
    gx[:, -1] = image[:, -1] - image[:, -2]
    return gy, gx


def _uniform_filter(array: np.ndarray, block: int,
                    output: np.ndarray | None = None) -> np.ndarray:
    """``ndimage.uniform_filter`` for the 2-D default-mode case.

    scipy's wrapper runs ``uniform_filter1d`` over axis 0 then axis 1
    (in place after the first axis), so calling the 1-D kernel directly
    — optionally writing into ``output``, which may alias ``array`` —
    produces bit-identical values while skipping the wrapper's per-call
    argument normalization and an intermediate allocation.
    """
    if output is None:
        output = np.empty_like(array)
    ndimage.uniform_filter1d(array, block, axis=0, output=output)
    ndimage.uniform_filter1d(output, block, axis=1, output=output)
    return output


def _doubled_angle_products(image: np.ndarray, block: int) -> np.ndarray:
    """The box-filtered structure tensor as ``(2 gxy, gxx - gyy)``, stacked.

    These are the doubled-angle gradient products that
    :func:`estimate_orientation` smooths; :func:`_orientation_at` reads
    the same two planes.
    """
    image = np.asarray(image, dtype=np.float64)
    gy, gx = _gradient_pair(image)
    # Each box filter writes where its result is needed, and 2 * gxy and
    # gxx - gyy are taken in place: the same float ops, fewer buffers.
    # (The wrapper, not _uniform_filter: at block=1 it copies, where a
    # size-1 running mean would round.)
    products = np.empty((2,) + image.shape)
    sin2 = ndimage.uniform_filter(gx * gy, size=block, output=products[0])
    sin2 *= 2.0
    gx *= gx
    cos2 = ndimage.uniform_filter(gx, size=block, output=products[1])
    gy *= gy
    cos2 -= ndimage.uniform_filter(gy, size=block, output=gy)
    return products


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
    gradient products.
    """
    sin2, cos2 = _doubled_angle_products(image, block)
    return _ridge_angle(ndimage.gaussian_filter(sin2, smooth_sigma),
                        ndimage.gaussian_filter(cos2, smooth_sigma))


def _reflect(index: np.ndarray, length: int) -> np.ndarray:
    """scipy's ``reflect`` boundary (``dcba|abcd|dcba``) as an index map.

    The extension repeats with period ``2 * length``, so offsets more
    than one frame past an edge map too.
    """
    index = np.mod(index, 2 * length)
    return np.where(index < length, index, 2 * length - 1 - index)


def _orientation_at(image: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                    block: int = 12, smooth_sigma: float = 2.0) -> np.ndarray:
    """``estimate_orientation(image, block, smooth_sigma)[rows, cols]``.

    The structure tensor is box-filtered over the whole frame, but the
    Gaussian and the angle run only at the queried pixels.  Each pixel's
    Gaussian window is gathered with the ``reflect`` boundary of the
    full-frame filter and smoothed down its rows, then across its columns,
    by the same ``gaussian_filter1d``.  The centre of the window reads
    exactly the values the full-frame filter reads at that pixel, in the
    same order, so each result is bit-identical.
    """
    # The tensor comes first, so a frame too small for a gradient raises
    # as estimate_orientation does, whatever is queried.
    products = _doubled_angle_products(image, block)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.size == 0:
        return np.empty(0)
    # gaussian_filter1d's own reach: truncate=4 standard deviations.
    radius = int(4.0 * float(smooth_sigma) + 0.5)
    offsets = np.arange(-radius, radius + 1)
    window_r = _reflect(rows[:, None] + offsets, products.shape[1])
    window_c = _reflect(cols[:, None] + offsets, products.shape[2])
    windows = products[:, window_r[:, :, None], window_c[:, None, :]]
    down = ndimage.gaussian_filter1d(windows, smooth_sigma, axis=2)
    across = ndimage.gaussian_filter1d(down[:, :, radius], smooth_sigma,
                                       axis=2)
    return _ridge_angle(across[0, :, radius], across[1, :, radius])


def orientation_coherence(image: np.ndarray, block: int = 12) -> np.ndarray:
    """Per-pixel orientation coherence in [0, 1].

    Coherence ~1 means locally parallel ridges (good quality); ~0 means
    isotropic texture (smudge, noise, or singular point).  Used by the
    quality gate of the Fig. 6 pipeline.
    """
    image = np.asarray(image, dtype=np.float64)
    gy, gx = _gradient_pair(image)
    # The gradient buffers die after the three products, so two products
    # square in place; this path runs once per rendered touch.
    gxy = _uniform_filter(gx * gy, block)
    gx *= gx
    gxx = _uniform_filter(gx, block, output=gx)
    gy *= gy
    gyy = _uniform_filter(gy, block, output=gy)
    # In-place evaluation of sqrt((gxx-gyy)^2 + 4*gxy^2) / (gxx+gyy):
    # each rewrite below preserves the reference op order (or commutes a
    # product) so every float is bit-identical to the original expression.
    numerator = gxx - gyy
    numerator *= numerator
    gxy *= gxy
    gxy *= 4.0
    numerator += gxy
    np.sqrt(numerator, out=numerator)
    denominator = gxx + gyy
    positive = denominator > 1e-12
    with np.errstate(invalid="ignore", divide="ignore"):
        numerator /= denominator
    np.logical_not(positive, out=positive)
    np.copyto(numerator, 0.0, where=positive)
    return np.clip(numerator, 0.0, 1.0, out=numerator)


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

    def sample(self, row: float, col: float) -> float:
        """Orientation at a (possibly fractional) pixel position."""
        r = int(np.clip(round(row), 0, self.shape[0] - 1))
        c = int(np.clip(round(col), 0, self.shape[1] - 1))
        return float(self.field[r, c])
