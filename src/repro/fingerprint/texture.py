"""Ridge-texture matching and score-level fusion (paper reference [12]).

The paper's assumption 3 leans on Malathi's result that *score-level
fusion* of complementary features improves partial fingerprint matching.
This module adds the second modality: a compact ridge-texture descriptor
(block-sampled orientation field weighted by coherence) compared under the
rigid alignment the minutiae matcher already found, plus a fused matcher
combining both scores.

Texture is most valuable exactly where minutiae are weakest — small
partial patches with few minutiae still carry a dense orientation field —
which is why fusion tightens the partial-capture operating point (shown in
benchmark E7's fusion row).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image_ops import segment_foreground
from .matching import MatchResult, MinutiaeMatcher
from .minutiae import Minutia
from .orientation import estimate_orientation, orientation_coherence

__all__ = ["TextureDescriptor", "texture_similarity", "FusedMatcher",
           "FusedResult"]

#: Orientation field sampling stride (pixels per grid cell).
GRID_STRIDE = 8


@dataclass(frozen=True)
class TextureDescriptor:
    """Block-sampled orientation field of one capture, one cell every
    ``GRID_STRIDE`` pixels; :meth:`pixel_points` anchors the cells back to
    image pixels so the minutiae alignment transform applies directly.
    """

    orientation: np.ndarray  # radians [0, pi), shape (gr, gc)
    weight: np.ndarray  # coherence in [0, 1], zero off-finger

    @classmethod
    def from_image(cls, image: np.ndarray,
                   mask: np.ndarray | None = None) -> "TextureDescriptor":
        """Build the descriptor from a capture image (+ optional mask)."""
        image = np.asarray(image, dtype=np.float64)
        if mask is None:
            mask = segment_foreground(image)
        orientation = estimate_orientation(image)
        coherence = orientation_coherence(image)
        grid_rows = image.shape[0] // GRID_STRIDE
        grid_cols = image.shape[1] // GRID_STRIDE
        field = np.zeros((grid_rows, grid_cols))
        weight = np.zeros((grid_rows, grid_cols))
        for gr in range(grid_rows):
            for gc in range(grid_cols):
                r = gr * GRID_STRIDE + GRID_STRIDE // 2
                c = gc * GRID_STRIDE + GRID_STRIDE // 2
                if mask[r, c]:
                    field[gr, gc] = orientation[r, c]
                    weight[gr, gc] = coherence[r, c]
        return cls(orientation=field, weight=weight)

    def pixel_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(positions (n,2) in px, orientations (n,), weights (n,)) of the
        foreground grid cells."""
        grid_rows, grid_cols = self.orientation.shape
        rr, cc = np.meshgrid(np.arange(grid_rows), np.arange(grid_cols),
                             indexing="ij")
        live = self.weight > 0.05
        positions = np.stack([
            rr[live] * GRID_STRIDE + GRID_STRIDE // 2,
            cc[live] * GRID_STRIDE + GRID_STRIDE // 2,
        ], axis=1).astype(np.float64)
        return positions, self.orientation[live], self.weight[live]


def texture_similarity(template: TextureDescriptor,
                       probe: TextureDescriptor,
                       rotation: float,
                       translation: tuple[float, float]) -> float:
    """Orientation-field agreement under a rigid alignment, in [0, 1].

    Probe grid points are mapped into the template frame by the minutiae
    alignment (rotate about origin convention of
    :class:`~repro.fingerprint.matching.MatchResult`: probe -> template),
    the template field is sampled at the landing cells, and agreement is
    the coherence-weighted mean of cos(2 * delta-theta) over the overlap
    (doubled angles: orientation is pi-periodic).  No overlap scores 0.
    """
    probe_positions, probe_angles, probe_weights = probe.pixel_points()
    if len(probe_positions) == 0:
        return 0.0
    cos_r, sin_r = np.cos(rotation), np.sin(rotation)
    rows = (probe_positions[:, 1] * sin_r + probe_positions[:, 0] * cos_r
            + translation[0])
    cols = (probe_positions[:, 1] * cos_r - probe_positions[:, 0] * sin_r
            + translation[1])
    grid_rows, grid_cols = template.orientation.shape
    gr = np.round((rows - GRID_STRIDE // 2) / GRID_STRIDE).astype(int)
    gc = np.round((cols - GRID_STRIDE // 2) / GRID_STRIDE).astype(int)
    inside = (gr >= 0) & (gr < grid_rows) & (gc >= 0) & (gc < grid_cols)
    if not inside.any():
        return 0.0
    template_angles = template.orientation[gr[inside], gc[inside]]
    template_weights = template.weight[gr[inside], gc[inside]]
    weights = probe_weights[inside] * template_weights
    total = weights.sum()
    if total < 1e-9:
        return 0.0
    # Probe orientations rotate with the alignment (pi-periodic).
    probe_rotated = np.mod(probe_angles[inside] + rotation, np.pi)
    agreement = np.cos(2.0 * (template_angles - probe_rotated))
    mean_agreement = float((weights * agreement).sum() / total)
    overlap_fraction = float(inside.mean())
    return max(0.0, (mean_agreement + 1.0) / 2.0) * overlap_fraction


@dataclass(frozen=True)
class FusedResult:
    """Outcome of a fused minutiae + texture comparison."""

    minutiae: MatchResult
    texture_score: float
    score: float  # fused, in [0, 1]


class FusedMatcher:
    """Score-level fusion of minutiae and ridge texture ([12]'s recipe)."""

    def __init__(self, minutiae_weight: float = 0.6) -> None:
        if not 0.0 <= minutiae_weight <= 1.0:
            raise ValueError("minutiae weight must be in [0, 1]")
        self.minutiae_weight = float(minutiae_weight)
        self.matcher = MinutiaeMatcher()

    def match(self, template_minutiae: list[Minutia],
              template_texture: TextureDescriptor,
              probe_minutiae: list[Minutia],
              probe_texture: TextureDescriptor) -> FusedResult:
        """Fused comparison: minutiae alignment + texture agreement."""
        minutiae_result = self.matcher.match(template_minutiae,
                                             probe_minutiae)
        if minutiae_result.matched_pairs == 0:
            # No alignment hypothesis survived: texture cannot be aligned
            # either, so the fused score falls back to minutiae alone.
            return FusedResult(minutiae=minutiae_result, texture_score=0.0,
                               score=self.minutiae_weight
                               * minutiae_result.score)
        texture_score = texture_similarity(
            template_texture, probe_texture,
            minutiae_result.rotation, minutiae_result.offset)
        fused = (self.minutiae_weight * minutiae_result.score
                 + (1.0 - self.minutiae_weight) * texture_score)
        return FusedResult(minutiae=minutiae_result,
                           texture_score=texture_score, score=fused)
