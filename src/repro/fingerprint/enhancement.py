"""Contextual fingerprint enhancement (Hong-Wan-Jain style).

The classical enhancement pass the embedded fingerprint processor runs on
marginal captures before feature extraction: normalize, estimate the local
orientation field, then filter with orientation-steered Gabor kernels so
ridge structure is amplified and noise/smudge suppressed.  On clean
captures it is a no-op cost; on noisy, light-pressure or motion-smeared
captures it recovers minutiae the raw pipeline loses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gabor import GaborBank
from .image_ops import (contact_window, normalize, ridge_statistics,
                        segment_foreground)
from .minutiae import Minutia, minutiae_from_image
from .orientation import estimate_orientation

__all__ = ["EnhancementResult", "enhance", "minutiae_with_enhancement"]


@dataclass
class EnhancementResult:
    """Enhanced image plus the intermediate products."""

    image: np.ndarray  # enhanced, float in [0, 1]
    orientation: np.ndarray
    mask: np.ndarray


def enhance(image: np.ndarray, mask: np.ndarray | None = None,
            wavelength: float = 8.5, n_orientations: int = 16,
            block: int = 12) -> EnhancementResult:
    """One contextual-filtering pass.

    ``wavelength`` is the expected ridge period in pixels; the default
    matches this package's synthesis range (7.5-9.5 px).  A ``mask`` must
    have the image's exact shape.
    """
    image = np.asarray(image, dtype=np.float64)
    if mask is not None and np.shape(mask) != image.shape:
        raise ValueError("mask and image shapes differ")
    image = normalize(image)
    if mask is None:
        mask = segment_foreground(image, block=block)
    orientation = estimate_orientation(image, block=block)
    bank = GaborBank(wavelength, n_orientations=n_orientations)
    filtered = bank.filter(image - image.mean(), orientation)
    # Squash to [0, 1] with ridges bright, background neutral.
    peak = np.abs(filtered).max()
    if peak > 1e-12:
        enhanced = 0.5 + 0.5 * np.tanh(2.5 * filtered / peak)
    else:
        enhanced = np.full_like(image, 0.5)
    enhanced = np.where(mask, enhanced, 0.5)
    return EnhancementResult(image=enhanced, orientation=orientation,
                             mask=mask)


def minutiae_with_enhancement(image: np.ndarray,
                              mask: np.ndarray | None = None) -> list[Minutia]:
    """Enhancement followed by the standard extraction pipeline, each at
    its default wavelength, block and border.

    Extraction reads the ridge statistics of the enhanced mask's contact
    window only, which is exact: :func:`enhance` leaves 0.5 outside the
    mask (see :class:`~repro.fingerprint.image_ops.RidgeStatistics`).
    """
    result = enhance(image, mask=mask)
    statistics = ridge_statistics(result.image,
                                  window=contact_window(result.mask))
    return minutiae_from_image(result.image, result.mask,
                               statistics=statistics)
