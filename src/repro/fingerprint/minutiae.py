"""Minutiae extraction via the crossing-number method.

On a one-pixel skeleton, the crossing number CN of a ridge pixel — half the
sum of absolute differences around its 8-neighbourhood — classifies it:
CN=1 is a ridge ending, CN=3 a bifurcation.  CN depends only on the
8-neighbour code thinning already computes, so it is read from a 256-entry
table.  Raw detections are filtered against the foreground mask border
(where ridge truncation creates spurious endings) and de-duplicated within
a minimum separation.

Each minutia carries a direction (the local ridge orientation, resolved to
[0, 2*pi) by probing the skeleton) so the matcher can reject pairings with
inconsistent angles.  From an image, the orientation is evaluated only at
the detections that survive de-duplication, from the same box-filtered
statistics binarization reads.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .image_ops import RidgeStatistics, ridge_statistics, segment_foreground
from .orientation import _orientation_at
from .thinning import _neighbour_bits, _neighbour_code, _ring, zhang_suen_thin

__all__ = ["Minutia", "extract_minutiae", "minutiae_from_image"]

ENDING = "ending"
BIFURCATION = "bifurcation"


@dataclass(frozen=True)
class Minutia:
    """One minutia: position (pixels), direction (radians), and kind."""

    row: float
    col: float
    direction: float  # [0, 2*pi)
    kind: str  # ENDING or BIFURCATION


def _crossing_table() -> np.ndarray:
    """CN per 8-neighbour code: half the changes around P2..P9, P2."""
    table = np.zeros(256, dtype=np.uint8)
    for code in range(256):
        ring = _neighbour_bits(code)
        changes = sum(abs(a - b) for a, b in zip(ring, ring[1:] + ring[:1]))
        table[code] = changes // 2
    return table


_CROSSING_NUMBER = _crossing_table()


def _crossing_number(skeleton: np.ndarray) -> np.ndarray:
    """Crossing number at each skeleton pixel (0 elsewhere)."""
    cells = np.pad(skeleton, 1).view(np.uint8)
    cn = np.take(_CROSSING_NUMBER, _neighbour_code(_ring(cells)))
    cn *= skeleton
    return cn


def _border_interior(mask: np.ndarray, border_margin: int) -> np.ndarray:
    """Mask pixels whose ``border_margin``-px neighbourhood is all mask.

    The neighbourhood is the ``(2m+1)``-square and pixels off the frame
    count as background: the erosion by the 3x3 square iterated ``m``
    times, done as two separable running minima.  A margin of 0 keeps the
    whole mask.
    """
    if border_margin < 0:
        raise ValueError("border_margin must be non-negative")
    size = 2 * border_margin + 1
    interior = ndimage.minimum_filter1d(np.asarray(mask, dtype=bool), size,
                                        axis=0, mode="constant", cval=0)
    return ndimage.minimum_filter1d(interior, size, axis=1, output=interior,
                                    mode="constant", cval=0)


def _directions(skeleton: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                orientations: np.ndarray) -> list[float]:
    """Resolve each detection's pi-periodic ridge orientation to a full angle.

    For an ending, the direction points *along the ridge away from the end*;
    we pick the half-plane containing more skeleton mass within 6 px.  The
    windows of all detections are gathered at once (off the frame reads as
    background); each projection is still summed over its own contiguous
    terms, in the window's row-major order.
    """
    size = 6
    reach = np.arange(2 * size + 1)
    padded = np.pad(skeleton, size)
    windows = padded[(rows[:, None] + reach)[:, :, None],
                     (cols[:, None] + reach)[:, None, :]]
    owner, dr, dc = np.nonzero(windows)
    dr -= size
    dc -= size
    # Project neighbours onto the orientation axis; the sign of the mean
    # projection picks the ridge-bearing half.
    projection = dc * np.cos(orientations)[owner]
    projection += dr * np.sin(orientations)[owner]
    bounds = np.searchsorted(owner, np.arange(len(rows) + 1)).tolist()
    directions = []
    for orientation, start, end in zip(orientations.tolist(), bounds,
                                       bounds[1:]):
        if end - start >= 2 and not projection[start:end].sum() >= 0.0:
            orientation += np.pi
        directions.append(orientation % (2.0 * np.pi))
    return directions


def _extract(skeleton: np.ndarray, mask: np.ndarray,
             orientation_at: Callable[[np.ndarray, np.ndarray], np.ndarray],
             border_margin: int, min_separation: float,
             origin: tuple[int, int] = (0, 0)) -> list[Minutia]:
    """Detect, de-duplicate, then orient: ``orientation_at(rows, cols)``
    gives the ridge orientation at the kept detections.  Positions are
    offset by ``origin``, the skeleton's top-left pixel in the frame."""
    if skeleton.dtype != bool:
        raise ValueError("skeleton must be boolean")
    cn = _crossing_number(skeleton)
    interior = _border_interior(mask, border_margin)

    # De-duplicate before orienting: clusters of detections within
    # min_separation collapse to the first in row-major order.  Rows only
    # grow, so a kept detection min_separation rows back can clash with
    # no later one and leaves the window.
    rows, cols = np.nonzero(((cn == 1) | (cn == 3)) & interior)
    separation_sq = min_separation**2
    kept: list[tuple[int, int]] = []
    window = 0
    for r, c in zip(rows.tolist(), cols.tolist()):
        while window < len(kept) and (r - kept[window][0]) ** 2 >= separation_sq:
            window += 1
        if all((r - kr) ** 2 + (c - kc) ** 2 >= separation_sq
               for kr, kc in kept[window:]):
            kept.append((r, c))

    kept_rows = np.array([r for r, _ in kept], dtype=np.intp)
    kept_cols = np.array([c for _, c in kept], dtype=np.intp)
    orientations = np.asarray(orientation_at(kept_rows, kept_cols),
                              dtype=np.float64)
    directions = _directions(skeleton, kept_rows, kept_cols, orientations)
    r0, c0 = origin
    return [Minutia(float(r + r0), float(c + c0), direction,
                    ENDING if cn[r, c] == 1 else BIFURCATION)
            for (r, c), direction in zip(kept, directions)]


def extract_minutiae(skeleton: np.ndarray, mask: np.ndarray,
                     orientation_field: np.ndarray,
                     border_margin: int = 8,
                     min_separation: float = 6.0) -> list[Minutia]:
    """Detect, filter and orient minutiae on a skeleton.

    ``border_margin`` pixels next to the mask boundary are excluded: mask
    truncation manufactures ridge endings there that do not exist on the
    finger (critical for the paper's partial captures, whose border is most
    of the patch).  A margin of 0 excludes nothing; a negative one raises
    ValueError.
    """
    return _extract(skeleton, mask,
                    lambda rows, cols: orientation_field[rows, cols],
                    border_margin, min_separation)


def minutiae_from_image(image: np.ndarray, mask: np.ndarray | None = None,
                        block: int = 12, border_margin: int = 5,
                        statistics: RidgeStatistics | None = None,
                        ) -> list[Minutia]:
    """Full pipeline: image -> mask -> binarize -> thin -> minutiae.

    The result equals ``extract_minutiae`` on the skeleton with the full
    ``estimate_orientation(image, block)`` field, which is evaluated only
    at the kept detections.  A ``mask`` must have the image's exact shape.

    Binarization and orientation read the image's ridge statistics at
    ``block``: the whole frame's, or ``statistics`` if the caller has them
    (the image processor hands over its quality gate's).  Extraction runs
    on their window, with positions offset back into the frame; on a
    contact window it finds what the whole frame gives when the image is
    one constant outside ``mask`` (see :class:`RidgeStatistics`).
    """
    if mask is not None and np.shape(mask) != np.shape(image):
        raise ValueError("mask and image shapes differ")
    if statistics is None:
        statistics = ridge_statistics(image, block)
    else:
        statistics.check(image, block)
    if mask is None:
        mask = segment_foreground(image, block=block)
    mask = mask[statistics.window]
    ridges = statistics.image > statistics.mean
    ridges &= mask
    skeleton = zhang_suen_thin(ridges)
    return _extract(skeleton, mask,
                    lambda rows, cols: _orientation_at(statistics, rows, cols),
                    border_margin, 6.0, statistics.origin)
