"""Capture-quality assessment — the gate in box 2 of the paper's Fig. 6.

The paper discards captures whose quality is too poor for recognition
("move too fast, poor touch angle, incomplete data").  We score each
impression on four ingredients and combine them into one quality value in
[0, 1]:

- **coverage** — fraction of the frame in finger contact (incomplete data),
- **coherence** — mean orientation coherence on the foreground (motion blur
  and smudging destroy ridge parallelism),
- **contrast** — mean local ridge/valley contrast (light touches and sensor
  noise flatten it),
- **area** — absolute foreground area relative to the minimum needed to hold
  enough minutiae.

The combined score is the geometric mean, so any single catastrophic
ingredient drags the total down — matching how NFIQ-style quality measures
behave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image_ops import (
    RidgeStatistics,
    _contrast,
    contact_window,
    ridge_statistics,
)
from .impression import Impression
from .orientation import _coherence

__all__ = ["QualityReport", "assess_quality", "QualityGate"]


@dataclass(frozen=True)
class QualityReport:
    """Component and combined quality scores for one capture."""

    coverage: float
    coherence: float
    contrast: float
    area: float
    score: float


#: Foreground pixel count at which the area ingredient saturates; roughly the
#: area of a 64x64 patch, the smallest capture that reliably holds >= 8
#: minutiae at a 9-px ridge period.
_AREA_SATURATION = 64 * 64

#: Local contrast at which the contrast ingredient saturates (clean synthetic
#: ridges have local std ~0.35).
_CONTRAST_SATURATION = 0.25


def assess_quality(impression: Impression, block: int = 12,
                   statistics: RidgeStatistics | None = None) -> QualityReport:
    """Score one impression; deterministic, no thresholding.

    Coherence and contrast are read under the mask only, from the ridge
    statistics of the mask's :func:`contact_window`, so partial touches
    skip the empty part of the frame (:class:`RidgeStatistics` says when
    that equals the whole frame).  ``statistics`` hands over those
    statistics if the caller already has them
    (:meth:`QualityGate.statistics`); the report is the same either way.
    """
    mask = impression.mask
    coverage = float(mask.mean())
    if not mask.any():
        return QualityReport(0.0, 0.0, 0.0, 0.0, 0.0)

    window = contact_window(mask, block)
    if statistics is None:
        statistics = ridge_statistics(impression.image, block, window)
    else:
        statistics.check(impression.image, block, window)
    sub_mask = mask[window]

    coherence_map = _coherence(statistics.gxy, statistics.gxx, statistics.gyy)
    coherence = float(coherence_map[sub_mask].mean())

    contrast_map = _contrast(statistics.image, statistics.mean, block)
    contrast = float(np.clip(contrast_map[sub_mask].mean() / _CONTRAST_SATURATION, 0.0, 1.0))

    area = float(np.clip(mask.sum() / _AREA_SATURATION, 0.0, 1.0))

    ingredients = np.array([max(coverage, 1e-9), max(coherence, 1e-9),
                            max(contrast, 1e-9), max(area, 1e-9)])
    score = float(np.exp(np.log(ingredients).mean()))
    return QualityReport(coverage, coherence, contrast, area, score)


class QualityGate:
    """Accept/reject gate with a configurable threshold.

    ``threshold`` trades off how much low-grade data reaches the matcher
    (false accepts at the gate level) against how many genuine touches are
    wasted (the paper's first challenge: an impostor deliberately providing
    low-quality data is *discarded*, not authenticated).
    """

    def __init__(self, threshold: float = 0.35) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.threshold = float(threshold)

    def statistics(self, impression: Impression) -> RidgeStatistics:
        """The impression's ridge statistics as :meth:`evaluate` reads them:
        over its contact window at the default block."""
        return ridge_statistics(impression.image,
                                window=contact_window(impression.mask))

    def evaluate(self, impression: Impression,
                 statistics: RidgeStatistics | None = None,
                 ) -> tuple[bool, QualityReport]:
        """Return (passed, report); ``statistics`` as for
        :func:`assess_quality`."""
        report = assess_quality(impression, statistics=statistics)
        return report.score >= self.threshold, report
