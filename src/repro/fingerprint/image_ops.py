"""Basic fingerprint image operations: normalization, segmentation, blocks.

All fingerprint images in this package are ``float64`` numpy arrays in
[0, 1], where 1.0 is a ridge (dark on paper) and 0.0 is a valley, with shape
(rows, cols).  Masks are boolean arrays of the same shape, True on the
foreground (finger area).

The box-filtered statistics the quality gate and minutiae extraction both
read (the structure tensor and the local mean) are built here, once per
frame window, by :func:`ridge_statistics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = [
    "normalize",
    "segment_foreground",
    "local_contrast",
    "binarize",
    "RidgeStatistics",
    "ridge_statistics",
    "contact_window",
]

#: A frame window: (row slice, column slice).
Window = tuple[slice, slice]

#: Mean and standard deviation :func:`normalize` maps an image to.
NORMALIZED_MEAN = 0.5
NORMALIZED_STD = 0.25


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


def _box(array: np.ndarray, block: int,
         output: np.ndarray | None = None) -> np.ndarray:
    """``ndimage.uniform_filter(array, size=block)`` for the 2-D case.

    scipy's wrapper runs ``uniform_filter1d`` over axis 0 then axis 1 (in
    place after the first axis), and at ``block <= 1`` copies instead (a
    size-1 running mean would round), so doing the same here — optionally
    writing into ``output``, which may alias ``array`` — gives
    bit-identical values without the wrapper's per-call argument
    normalization and an intermediate allocation.
    """
    if output is None:
        output = np.empty_like(array)
    if block <= 1:
        output[...] = array
        return output
    ndimage.uniform_filter1d(array, block, axis=0, output=output)
    ndimage.uniform_filter1d(output, block, axis=1, output=output)
    return output


def _structure_tensor(image: np.ndarray, block: int) -> tuple[np.ndarray, ...]:
    """The box-filtered gradient products ``U(gx gy), U(gx^2), U(gy^2)``."""
    gy, gx = _gradient_pair(image)
    # The gradient buffers die after the three products, so two products
    # square in place, and every product is filtered in place.
    gxy = gx * gy
    gx *= gx
    gy *= gy
    return tuple(_box(product, block, output=product)
                 for product in (gxy, gx, gy))


def _contrast(image: np.ndarray, mean: np.ndarray, block: int) -> np.ndarray:
    """Local standard deviation ``sqrt(max(U(I^2) - U(I)^2, 0))``, given
    the local mean ``U(I)``."""
    std = image * image
    _box(std, block, output=std)
    np.subtract(std, mean * mean, out=std)
    np.maximum(std, 0.0, out=std)
    return np.sqrt(std, out=std)


def contact_window(mask: np.ndarray, block: int = 12) -> Window:
    """The mask's bounding box grown by ``block // 2 + 2``, in the frame.

    The margin holds every box-filter window and gradient step a masked
    pixel's statistics read.  At ``block >= 12`` it also holds the reach
    (8 px) of the orientation's Gaussian (``smooth_sigma=2``) at any
    minutia inside the mask.  An all-False mask gives the whole frame.
    """
    pad = block // 2 + 2
    rows_any = mask.any(axis=1)
    cols_any = mask.any(axis=0)
    r0 = max(int(np.argmax(rows_any)) - pad, 0)
    r1 = min(mask.shape[0] - int(np.argmax(rows_any[::-1])) + pad, mask.shape[0])
    c0 = max(int(np.argmax(cols_any)) - pad, 0)
    c1 = min(mask.shape[1] - int(np.argmax(cols_any[::-1])) + pad, mask.shape[1])
    return slice(r0, r1), slice(c0, c1)


@dataclass(frozen=True, eq=False)
class RidgeStatistics:
    """One frame window's box-filtered ridge statistics at one block size.

    ``gxy``, ``gxx`` and ``gyy`` are the structure tensor ``U(gx gy)``,
    ``U(gx^2)``, ``U(gy^2)`` and ``mean`` the local mean ``U(I)`` of the
    window's pixels ``image``, each computed as if the window were the
    whole frame.  The quality gate reads them for coherence and contrast
    (adding ``U(I^2)``, which only it reads), minutiae extraction for
    binarization and for the orientation at its detections.

    On a :func:`contact_window`, they equal the whole frame's statistics
    over the window when the frame is one constant outside its mask, as
    every rendered impression is (0.5): gradients there are exactly 0 and
    every running sum of ``uniform_filter1d`` holds one exact value up to
    the mask, wherever the line starts.  Elsewhere they may not: the
    running sum carries its rounding along the whole line, so a window of
    a frame with texture outside the mask differs from the frame in the
    last bits.
    """

    frame: np.ndarray
    block: int
    window: Window
    image: np.ndarray
    gxy: np.ndarray
    gxx: np.ndarray
    gyy: np.ndarray
    mean: np.ndarray

    @property
    def origin(self) -> tuple[int, int]:
        """The window's top-left pixel in the frame."""
        return self.window[0].start, self.window[1].start

    def check(self, frame: np.ndarray, block: int,
              window: Window | None = None) -> None:
        """Raise ValueError unless these describe ``frame`` at ``block``
        (and, if given, over ``window``)."""
        if (self.frame is not frame or self.block != block
                or (window is not None and self.window != window)):
            raise ValueError("statistics of another frame, block or window")


def ridge_statistics(image: np.ndarray, block: int = 12,
                     window: Window | None = None) -> RidgeStatistics:
    """The :class:`RidgeStatistics` of ``image`` over ``window`` (default:
    the whole frame)."""
    frame = np.asarray(image, dtype=np.float64)
    if window is None:
        window = slice(0, frame.shape[0]), slice(0, frame.shape[1])
    pixels = frame[window]
    return RidgeStatistics(frame, block, window, pixels,
                           *_structure_tensor(pixels, block),
                           _box(pixels, block))


def normalize(image: np.ndarray) -> np.ndarray:
    """Affine-normalize an image to ``NORMALIZED_MEAN``/``NORMALIZED_STD``,
    clipped to [0, 1].

    Classic Hong-Wan-Jain pre-normalization; makes downstream thresholds
    independent of capture contrast (pressure, sensor gain).
    """
    image = np.asarray(image, dtype=np.float64)
    std = image.std()
    if std < 1e-12:
        return np.full_like(image, NORMALIZED_MEAN)
    normalized = ((image - image.mean()) / std * NORMALIZED_STD
                  + NORMALIZED_MEAN)
    return np.clip(normalized, 0.0, 1.0)


def segment_foreground(image: np.ndarray, block: int = 12) -> np.ndarray:
    """Foreground mask: blocks with local variance above 1e-3.

    Fingerprint regions have strong ridge/valley oscillation (high local
    variance); background and smudges are flat.  The mask is cleaned with a
    binary closing + largest-component selection so stray blocks don't
    produce phantom minutiae at mask borders.
    """
    image = np.asarray(image, dtype=np.float64)
    mean = ndimage.uniform_filter(image, size=block)
    mean_sq = ndimage.uniform_filter(image * image, size=block)
    variance = np.maximum(mean_sq - mean * mean, 0.0)
    mask = variance > 1e-3
    if not mask.any():
        return mask
    mask = ndimage.binary_closing(mask, structure=np.ones((3, 3)), iterations=2)
    mask = ndimage.binary_opening(mask, structure=np.ones((3, 3)))
    labels, count = ndimage.label(mask)
    if count > 1:
        sizes = ndimage.sum_labels(mask, labels, index=range(1, count + 1))
        mask = labels == (int(np.argmax(sizes)) + 1)
    return ndimage.binary_fill_holes(mask)


def local_contrast(image: np.ndarray, block: int = 12) -> np.ndarray:
    """Per-pixel local standard deviation (sliding window)."""
    image = np.asarray(image, dtype=np.float64)
    return _contrast(image, _box(image, block), block)


def binarize(image: np.ndarray, mask: np.ndarray | None = None,
             block: int = 12) -> np.ndarray:
    """Adaptive (local-mean) binarization: True where ridges are.

    A pixel is ridge if it is darker than its local neighbourhood mean; this
    tracks slow illumination/pressure gradients better than a global
    threshold.
    """
    image = np.asarray(image, dtype=np.float64)
    ridges = image > _box(image, block)
    if mask is not None:
        ridges &= mask
    return ridges
