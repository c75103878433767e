"""Loop reference implementations of the vectorized fingerprint kernels.

These are the straightforward one-hypothesis / one-pixel-rule / one-
detection-at-a-time versions of ``MinutiaeMatcher.match`` (every row gap
tested, no range search, nothing prepared), ``_local_descriptors``,
``zhang_suen_thin`` and ``extract_minutiae`` (each direction from its own
clipped window), plus the whole-frame forms of the capture kernels:
scipy's bilinear ``map_coordinates`` sampling and a render through it,
the ring-formula crossing number, the iterated border erosion,
``estimate_orientation``, ``orientation_coherence``, ``local_contrast``
and ``binarize`` through the generic filters, the quality report and
minutiae extraction over the whole frame.  (The library's full-field
``estimate_orientation`` is in turn the oracle for point orientations.)
The Gabor bank's ``filter`` and ``synthesize`` run one
``scipy.signal.fftconvolve`` per used bin and pass, and ``enhance`` runs
through them.
The library's code must reproduce them bit for bit; the oracle tests in
``test_kernel_oracle.py`` hold it to that.  Keep them simple: they are the
specification, not an implementation to optimize.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage, signal

from repro.fingerprint.enhancement import EnhancementResult
from repro.fingerprint.gabor import GaborBank
from repro.fingerprint.image_ops import normalize, segment_foreground
from repro.fingerprint.impression import (
    Impression,
    _centred_grid,
    _elastic_displacement,
)
from repro.fingerprint.matching import (
    MatchResult,
    _descriptor_cost,
    minutiae_to_arrays,
)
from repro.fingerprint.minutiae import BIFURCATION, ENDING, Minutia


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


def sample_bilinear(image: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """Bilinear samples; coordinates off the image read 0.5."""
    return ndimage.map_coordinates(image, [rows, cols], order=1,
                                   mode="constant", cval=0.5)


def render_impression(master, condition, rng, output_shape=None):
    """Every pixel of the frame sampled through ``map_coordinates``."""
    condition.validate()
    rows, cols = master.shape if output_shape is None else output_shape
    center = condition.center
    if center is None:
        center = (master.shape[0] / 2.0, master.shape[1] / 2.0)
    rel_r, rel_c, rel_sq = _centred_grid(rows, cols)
    theta = np.deg2rad(condition.rotation_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    src_r = rel_r * cos_t + (center[0] + condition.translation[0]) \
        - rel_c * sin_t
    src_c = rel_r * sin_t + (center[1] + condition.translation[1]) \
        + rel_c * cos_t
    if condition.distortion > 0.0:
        d_r, d_c = _elastic_displacement((rows, cols), condition.distortion,
                                         rng)
        src_r = src_r + d_r
        src_c = src_c + d_c
    mask = ((src_r >= 0) & (src_r <= master.shape[0] - 1)
            & (src_c >= 0) & (src_c <= master.shape[1] - 1))
    if condition.radius is not None:
        mask &= rel_sq <= condition.radius**2

    image = sample_bilinear(master.image, src_r, src_c)
    pressure_bias = (condition.pressure - 0.5) * 0.5
    image = np.clip(image + (image - 0.5) * pressure_bias * 2.0, 0.0, 1.0)
    if condition.motion_px > 0.0:
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
        image = rng.normal(0.0, condition.noise, size=image.shape) + image
    if condition.dropout > 0.0:
        image = np.where(rng.random(image.shape) < condition.dropout, 0.5,
                         image)
    image = np.where(mask, np.clip(image, 0.0, 1.0), 0.5)
    return Impression(finger_id=master.finger_id, image=image, mask=mask,
                      condition=condition)


def estimate_orientation(image: np.ndarray, block: int = 12,
                         smooth_sigma: float = 2.0) -> np.ndarray:
    """Structure-tensor orientation through the generic scipy filters."""
    gy, gx = np.gradient(np.asarray(image, dtype=np.float64))
    gxx = ndimage.uniform_filter(gx * gx, size=block)
    gyy = ndimage.uniform_filter(gy * gy, size=block)
    gxy = ndimage.uniform_filter(gx * gy, size=block)
    sin2 = ndimage.gaussian_filter(2.0 * gxy, smooth_sigma)
    cos2 = ndimage.gaussian_filter(gxx - gyy, smooth_sigma)
    return np.mod(0.5 * np.arctan2(sin2, cos2) + np.pi / 2.0, np.pi)


def orientation_coherence(image: np.ndarray, block: int = 12) -> np.ndarray:
    """Coherence of the generic-filter structure tensor."""
    gy, gx = np.gradient(np.asarray(image, dtype=np.float64))
    gxx = ndimage.uniform_filter(gx * gx, size=block)
    gyy = ndimage.uniform_filter(gy * gy, size=block)
    gxy = ndimage.uniform_filter(gx * gy, size=block)
    numerator = np.sqrt((gxx - gyy) ** 2 + 4.0 * gxy**2)
    denominator = gxx + gyy
    with np.errstate(invalid="ignore", divide="ignore"):
        coherence = np.where(denominator > 1e-12, numerator / denominator, 0.0)
    return np.clip(coherence, 0.0, 1.0)


def local_contrast(image: np.ndarray, block: int = 12) -> np.ndarray:
    """Local standard deviation through the generic box filter."""
    image = np.asarray(image, dtype=np.float64)
    mean = ndimage.uniform_filter(image, size=block)
    mean_sq = ndimage.uniform_filter(image * image, size=block)
    return np.sqrt(np.maximum(mean_sq - mean * mean, 0.0))


def binarize(image: np.ndarray, mask: np.ndarray | None = None,
             block: int = 12) -> np.ndarray:
    """Pixels above their generic box-filter local mean, under the mask."""
    image = np.asarray(image, dtype=np.float64)
    ridges = image > ndimage.uniform_filter(image, size=block)
    return ridges if mask is None else ridges & mask


def assess_quality(impression: Impression, block: int = 12) -> tuple:
    """The quality report's fields, every map over the whole frame."""
    mask = impression.mask
    coverage = float(mask.mean())
    if not mask.any():
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    coherence = float(orientation_coherence(impression.image, block)[mask].mean())
    contrast = float(np.clip(
        local_contrast(impression.image, block)[mask].mean() / 0.25, 0.0, 1.0))
    area = float(np.clip(mask.sum() / (64 * 64), 0.0, 1.0))
    ingredients = np.array([max(coverage, 1e-9), max(coherence, 1e-9),
                            max(contrast, 1e-9), max(area, 1e-9)])
    score = float(np.exp(np.log(ingredients).mean()))
    return (coverage, coherence, contrast, area, score)


def minutiae_from_image(image: np.ndarray, mask: np.ndarray,
                        block: int = 12,
                        border_margin: int = 5) -> list[Minutia]:
    """Binarize, thin and extract over the whole frame, with the whole
    orientation field."""
    skeleton = zhang_suen_thin(binarize(image, mask, block))
    return extract_minutiae(skeleton, mask, estimate_orientation(image, block),
                            border_margin=border_margin, min_separation=6.0)


def crossing_number(skeleton: np.ndarray) -> np.ndarray:
    """Half the changes around P2..P9, P2 at each skeleton pixel."""
    padded = np.pad(skeleton.astype(np.int32), 1)
    # P2..P9 clockwise, then close the cycle.
    ring = [
        padded[:-2, 1:-1], padded[:-2, 2:], padded[1:-1, 2:], padded[2:, 2:],
        padded[2:, 1:-1], padded[2:, :-2], padded[1:-1, :-2], padded[:-2, :-2],
    ]
    ring.append(ring[0])
    cn = sum(np.abs(ring[i] - ring[i + 1]) for i in range(8)) // 2
    return np.where(skeleton, cn, 0)


def border_interior(mask: np.ndarray, border_margin: int) -> np.ndarray:
    """The 3x3 erosion iterated ``border_margin`` times, frame edge outside.

    scipy reads ``iterations < 1`` as "erode until nothing changes", which
    empties any finite mask; a margin of 0 must exclude nothing instead.
    """
    if border_margin < 0:
        raise ValueError("border_margin must be non-negative")
    if border_margin == 0:
        return np.asarray(mask, dtype=bool).copy()
    return ndimage.binary_erosion(mask, structure=np.ones((3, 3)),
                                  iterations=border_margin, border_value=0)


def _resolve_direction(skeleton: np.ndarray, row: int, col: int,
                       orientation: float, kind: str) -> float:
    """One detection's direction from its own clipped 13x13 window."""
    size = 6
    r0, r1 = max(row - size, 0), min(row + size + 1, skeleton.shape[0])
    c0, c1 = max(col - size, 0), min(col + size + 1, skeleton.shape[1])
    local = skeleton[r0:r1, c0:c1]
    rr, cc = np.nonzero(local)
    if len(rr) < 2:
        return orientation % (2.0 * np.pi)
    dr = rr + r0 - row
    dc = cc + c0 - col
    projection = dc * np.cos(orientation) + dr * np.sin(orientation)
    if projection.sum() >= 0.0:
        return orientation % (2.0 * np.pi)
    return (orientation + np.pi) % (2.0 * np.pi)


def extract_minutiae(skeleton: np.ndarray, mask: np.ndarray,
                     orientation_field: np.ndarray,
                     border_margin: int = 8,
                     min_separation: float = 6.0) -> list[Minutia]:
    """Resolve every raw detection, then de-duplicate against all kept."""
    if skeleton.dtype != bool:
        raise ValueError("skeleton must be boolean")
    cn = crossing_number(skeleton)
    interior = border_interior(mask, border_margin)
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


def gabor_filter(bank: GaborBank, image: np.ndarray,
                 orientation_field: np.ndarray) -> np.ndarray:
    """``GaborBank.filter``: one ``fftconvolve`` per used bin."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape != orientation_field.shape:
        raise ValueError("image and orientation field shapes differ")
    bins = bank.bin_of(orientation_field)
    output = np.zeros_like(image)
    for index, kernel in enumerate(bank.kernels):
        selection = bins == index
        if not selection.any():
            continue
        filtered = signal.fftconvolve(image, kernel, mode="same")
        output[selection] = filtered[selection]
    return output


def gabor_synthesize(bank: GaborBank, seed_image: np.ndarray,
                     orientation_field: np.ndarray, iterations: int = 6,
                     gain: float = 3.0) -> np.ndarray:
    """``GaborBank.synthesize``: every pass runs ``gabor_filter`` anew."""
    if iterations < 1:
        raise ValueError("need at least one iteration")
    state = np.asarray(seed_image, dtype=np.float64)
    for _ in range(iterations):
        state = gabor_filter(bank, state, orientation_field)
        scale = np.abs(state).max()
        if scale < 1e-12:
            raise ValueError("synthesis collapsed to a flat image; "
                             "seed the image with non-zero content")
        state = np.tanh(gain * state / scale)
    return 0.5 * (state + 1.0)


def enhance(image: np.ndarray, mask: np.ndarray | None = None,
            wavelength: float = 8.5, n_orientations: int = 16,
            block: int = 12) -> EnhancementResult:
    """One contextual-filtering pass through ``gabor_filter``."""
    image = normalize(np.asarray(image, dtype=np.float64))
    if mask is None:
        mask = segment_foreground(image, block=block)
    orientation = estimate_orientation(image, block=block)
    bank = GaborBank(wavelength, n_orientations=n_orientations)
    filtered = gabor_filter(bank, image - image.mean(), orientation)
    peak = np.abs(filtered).max()
    if peak > 1e-12:
        enhanced = 0.5 + 0.5 * np.tanh(2.5 * filtered / peak)
    else:
        enhanced = np.full_like(image, 0.5)
    enhanced = np.where(mask, enhanced, 0.5)
    return EnhancementResult(image=enhanced, orientation=orientation,
                             mask=mask)
