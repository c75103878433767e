"""Loop reference implementations of the vectorized fingerprint kernels.

These are the straightforward one-hypothesis / one-pixel-rule / one-
detection-at-a-time versions of ``MinutiaeMatcher.match``,
``_local_descriptors``, ``zhang_suen_thin`` and ``extract_minutiae``.
The library's batched code must reproduce them bit for bit; the oracle
tests in ``test_kernel_oracle.py`` hold it to that.  Keep them simple:
they are the specification, not an implementation to optimize.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.fingerprint.matching import (
    MatchResult,
    _descriptor_cost,
    minutiae_to_arrays,
)
from repro.fingerprint.minutiae import (
    BIFURCATION,
    ENDING,
    Minutia,
    _crossing_number,
    _resolve_direction,
)


def _angle_difference(a, b):
    diff = np.mod(np.asarray(a) - np.asarray(b) + np.pi, 2.0 * np.pi) - np.pi
    return np.abs(diff)


def local_descriptors(positions: np.ndarray, angles: np.ndarray,
                      k_neighbors: int) -> np.ndarray:
    """Per-minutia loop over the k nearest neighbours."""
    n = len(positions)
    descriptors = np.zeros((n, 3 * k_neighbors), dtype=np.float64)
    if n < 2:
        return descriptors
    deltas = positions[None, :, :] - positions[:, None, :]  # (n, n, 2)
    distances = np.hypot(deltas[..., 0], deltas[..., 1])
    np.fill_diagonal(distances, np.inf)
    for i in range(n):
        order = np.argsort(distances[i])[:k_neighbors]
        for slot, j in enumerate(order):
            if not np.isfinite(distances[i, j]):
                break
            bearing = np.arctan2(deltas[i, j, 0], deltas[i, j, 1])
            descriptors[i, 3 * slot] = distances[i, j]
            descriptors[i, 3 * slot + 1] = np.mod(bearing - angles[i], 2 * np.pi)
            descriptors[i, 3 * slot + 2] = np.mod(angles[j] - angles[i], 2 * np.pi)
    return descriptors


def _overlap_score(pos_t, transformed_probe, matched, n_probe,
                   distance_tolerance):
    if matched == 0:
        return 0.0
    centroid = transformed_probe.mean(axis=0)
    deltas = transformed_probe - centroid
    footprint = np.hypot(deltas[:, 0], deltas[:, 1]).max() + distance_tolerance
    t_deltas = pos_t - centroid
    n_overlap = int((np.hypot(t_deltas[:, 0], t_deltas[:, 1]) <= footprint).sum())
    denominator = max(n_overlap, n_probe, 1) * n_probe
    return float(min(matched * matched / denominator, 1.0))


def _count_matches(pos_t, ang_t, pos_p, ang_p, distance_tolerance,
                   angle_tolerance):
    deltas = pos_t[:, None, :] - pos_p[None, :, :]
    distances = np.hypot(deltas[..., 0], deltas[..., 1])
    angle_ok = _angle_difference(ang_t[:, None], ang_p[None, :]) <= angle_tolerance
    eligible = (distances <= distance_tolerance) & angle_ok
    if not eligible.any():
        return 0
    candidate_costs = np.where(eligible, distances, np.inf)
    matched = 0
    used_t = np.zeros(len(pos_t), dtype=bool)
    used_p = np.zeros(len(pos_p), dtype=bool)
    order = np.argsort(candidate_costs, axis=None)
    for flat in order:
        if not np.isfinite(candidate_costs.flat[flat]):
            break
        i, j = np.unravel_index(flat, candidate_costs.shape)
        if used_t[i] or used_p[j]:
            continue
        used_t[i] = used_p[j] = True
        matched += 1
    return matched


def match(template, probe, distance_tolerance=7.0, angle_tolerance=0.3,
          k_neighbors=4, max_hypotheses=64) -> MatchResult:
    """Score each alignment hypothesis in turn; the first best wins."""
    pos_t, ang_t = minutiae_to_arrays(template)
    pos_p, ang_p = minutiae_to_arrays(probe)
    n_t, n_p = len(pos_t), len(pos_p)
    if n_t == 0 or n_p == 0:
        return MatchResult(0.0, 0, n_t, n_p, 0.0, (0.0, 0.0))

    desc_t = local_descriptors(pos_t, ang_t, k_neighbors)
    desc_p = local_descriptors(pos_p, ang_p, k_neighbors)
    cost = _descriptor_cost(desc_t, desc_p, k_neighbors)

    flat_order = np.argsort(cost, axis=None)[:max_hypotheses]
    hypothesis_pairs = [np.unravel_index(i, cost.shape) for i in flat_order]

    best = MatchResult(0.0, 0, n_t, n_p, 0.0, (0.0, 0.0))
    for t_index, p_index in hypothesis_pairs:
        rotation = float(np.mod(ang_t[t_index] - ang_p[p_index], 2 * np.pi))
        cos_r, sin_r = np.cos(rotation), np.sin(rotation)
        score, matched = score_hypothesis(
            pos_t, ang_t, pos_p, ang_p, t_index, p_index,
            distance_tolerance, angle_tolerance)
        if score > best.score:
            translation = (
                float(pos_t[t_index][0] - pos_p[p_index][0]),
                float(pos_t[t_index][1] - pos_p[p_index][1]),
            )
            anchor = pos_p[p_index]
            rotated_anchor = (
                anchor[1] * sin_r + anchor[0] * cos_r,
                anchor[1] * cos_r - anchor[0] * sin_r,
            )
            offset = (
                float(pos_t[t_index][0] - rotated_anchor[0]),
                float(pos_t[t_index][1] - rotated_anchor[1]),
            )
            best = MatchResult(score, matched, n_t, n_p, rotation,
                               translation, offset)
    return best


def score_hypothesis(pos_t, ang_t, pos_p, ang_p, t_index, p_index,
                     distance_tolerance=7.0, angle_tolerance=0.3):
    """``(score, matched)`` of the hypothesis anchoring p_index on t_index."""
    rotation = float(np.mod(ang_t[t_index] - ang_p[p_index], 2 * np.pi))
    cos_r, sin_r = np.cos(rotation), np.sin(rotation)
    rel = pos_p - pos_p[p_index]
    rotated = np.empty_like(rel)
    rotated[:, 0] = rel[:, 1] * sin_r + rel[:, 0] * cos_r
    rotated[:, 1] = rel[:, 1] * cos_r - rel[:, 0] * sin_r
    transformed = rotated + pos_t[t_index]
    transformed_angles = np.mod(ang_p + rotation, 2 * np.pi)
    matched = _count_matches(pos_t, ang_t, transformed, transformed_angles,
                             distance_tolerance, angle_tolerance)
    score = _overlap_score(pos_t, transformed, matched, len(pos_p),
                           distance_tolerance)
    return score, matched


def _neighbors(img):
    padded = np.pad(img, 1, mode="constant")
    return (padded[:-2, 1:-1], padded[:-2, 2:], padded[1:-1, 2:],
            padded[2:, 2:], padded[2:, 1:-1], padded[2:, :-2],
            padded[1:-1, :-2], padded[:-2, :-2])


def zhang_suen_thin(binary: np.ndarray, max_iterations: int = 200) -> np.ndarray:
    """Every Zhang-Suen condition evaluated as full-frame array algebra."""
    if binary.dtype != bool:
        raise ValueError("zhang_suen_thin expects a boolean array")
    img = binary.astype(np.uint8)

    for _ in range(max_iterations):
        changed = False
        for phase in (0, 1):
            p = _neighbors(img)
            neighbor_count = sum(x.astype(np.int32) for x in p)
            sequence = list(p) + [p[0]]
            transitions = sum(
                ((sequence[i] == 0) & (sequence[i + 1] == 1)).astype(np.int32)
                for i in range(8)
            )
            p2, p3, p4, p5, p6, p7, p8, p9 = p
            if phase == 0:
                cond_a = (p2 * p4 * p6) == 0
                cond_b = (p4 * p6 * p8) == 0
            else:
                cond_a = (p2 * p4 * p8) == 0
                cond_b = (p2 * p6 * p8) == 0
            removable = (
                (img == 1)
                & (neighbor_count >= 2) & (neighbor_count <= 6)
                & (transitions == 1)
                & cond_a & cond_b
            )
            if removable.any():
                img[removable] = 0
                changed = True
        if not changed:
            break
    return img.astype(bool)


def extract_minutiae(skeleton: np.ndarray, mask: np.ndarray,
                     orientation_field: np.ndarray,
                     border_margin: int = 8,
                     min_separation: float = 6.0) -> list[Minutia]:
    """Resolve every raw detection, then de-duplicate against all kept."""
    if skeleton.dtype != bool:
        raise ValueError("skeleton must be boolean")
    cn = _crossing_number(skeleton)
    interior = ndimage.binary_erosion(
        mask, structure=np.ones((3, 3)), iterations=border_margin,
        border_value=0,
    )
    detections: list[Minutia] = []
    for kind, cn_value in ((ENDING, 1), (BIFURCATION, 3)):
        rows, cols = np.nonzero((cn == cn_value) & interior)
        for r, c in zip(rows.tolist(), cols.tolist()):
            direction = _resolve_direction(
                skeleton, r, c, float(orientation_field[r, c]), kind
            )
            detections.append(Minutia(float(r), float(c), direction, kind))
    detections.sort(key=lambda m: (m.row, m.col))
    kept: list[Minutia] = []
    for minutia in detections:
        if all(
            (minutia.row - other.row) ** 2 + (minutia.col - other.col) ** 2
            >= min_separation**2
            for other in kept
        ):
            kept.append(minutia)
    return kept
