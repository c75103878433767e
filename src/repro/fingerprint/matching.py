"""Minutiae matching: alignment hypotheses + greedy one-to-one pairing.

The matcher follows the classical two-stage design:

1. *Correspondence proposal.*  Each minutia gets a rotation/translation
   invariant local descriptor (polar layout of its nearest neighbours).
   Descriptor distances between the template and the probe propose a small
   set of likely minutia correspondences.
2. *Alignment + scoring.*  Each proposed correspondence induces a rigid
   transform (rotate-then-translate) mapping the probe onto the template.
   Under each transform, probe and template minutiae are paired greedily
   within distance/angle tolerances.  The candidate score is
   ``matched^2 / (n_overlap * n_probe)`` where ``n_overlap`` is the number
   of template minutiae inside the transformed probe's footprint — i.e. the
   probe is only held accountable for the template region it actually
   touched.  The match score is the best over all hypotheses, in [0, 1].

The overlap normalization is what makes partial captures work: a 48-px
touch patch seen by an in-display TFT sensor covers ~15 % of the enrolled
finger, and normalizing by the full template size would cap its score at
that fraction regardless of how well it matches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .minutiae import Minutia

__all__ = ["MatchResult", "MinutiaeMatcher", "PreparedMinutiae",
           "minutiae_to_arrays"]

#: Candidate (template, probe) minutia pairs scored per batch of
#: hypotheses.  Bounds the matcher's working set: each batch array holds
#: this many entries (512 KiB as float64) however large the probe.
_PAIR_BUDGET = 1 << 16


def minutiae_to_arrays(minutiae: list[Minutia]) -> tuple[np.ndarray, np.ndarray]:
    """Split minutiae into an (n, 2) position array and an (n,) angle array."""
    if not minutiae:
        return np.zeros((0, 2)), np.zeros((0,))
    positions = np.array([[m.row, m.col] for m in minutiae], dtype=np.float64)
    angles = np.array([m.direction for m in minutiae], dtype=np.float64)
    return positions, angles


def _angle_difference(a: np.ndarray | float, b: np.ndarray | float) -> np.ndarray:
    """Smallest absolute difference between angles (2*pi periodic)."""
    diff = np.mod(np.asarray(a) - np.asarray(b) + np.pi, 2.0 * np.pi) - np.pi
    return np.abs(diff)


def _local_descriptors(positions: np.ndarray, angles: np.ndarray,
                       k_neighbors: int) -> np.ndarray:
    """Rotation-invariant local structure descriptors, shape (n, 3k).

    For each minutia, the k nearest neighbours contribute (distance,
    bearing relative to the minutia direction, neighbour direction relative
    to the minutia direction), sorted by distance.
    """
    n = len(positions)
    descriptors = np.zeros((n, k_neighbors, 3), dtype=np.float64)
    if n >= 2:
        deltas = positions[None, :, :] - positions[:, None, :]  # (n, n, 2)
        distances = np.hypot(deltas[..., 0], deltas[..., 1])
        np.fill_diagonal(distances, np.inf)
        rows = np.arange(n)[:, None]
        order = np.argsort(distances, axis=1)[:, :k_neighbors]
        near = distances[rows, order]
        # Slots past n - 1 neighbours (the minutia itself) stay zero.
        found = np.isfinite(near)
        bearing = np.arctan2(deltas[rows, order, 0], deltas[rows, order, 1])
        slots = descriptors[:, :order.shape[1]]
        slots[found, 0] = near[found]
        slots[found, 1] = np.mod(bearing - angles[:, None], 2 * np.pi)[found]
        slots[found, 2] = np.mod(angles[order] - angles[:, None], 2 * np.pi)[found]
    return descriptors.reshape(n, 3 * k_neighbors)


def _descriptor_cost(desc_a: np.ndarray, desc_b: np.ndarray,
                     k_neighbors: int) -> np.ndarray:
    """Pairwise descriptor dissimilarity matrix, shape (nA, nB)."""
    nA, nB = len(desc_a), len(desc_b)
    cost = np.zeros((nA, nB))
    for slot in range(k_neighbors):
        d_a = desc_a[:, 3 * slot][:, None]
        d_b = desc_b[:, 3 * slot][None, :]
        cost += np.abs(d_a - d_b) / 10.0
        for offset in (1, 2):
            angle_a = desc_a[:, 3 * slot + offset][:, None]
            angle_b = desc_b[:, 3 * slot + offset][None, :]
            cost += _angle_difference(angle_a, angle_b)
    return cost


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one template-vs-probe comparison."""

    score: float  # in [0, 1]
    matched_pairs: int
    n_template: int
    n_probe: int
    rotation: float  # radians of the winning alignment
    translation: tuple[float, float]  # anchor displacement (row, col)
    #: Rotate-about-origin offset: probe -> template is
    #: ``R(rotation) @ p + offset``.  What downstream consumers (texture
    #: fusion) need to re-apply the winning alignment to other features.
    offset: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True, eq=False)
class PreparedMinutiae:
    """A minutiae set in the form the matcher reads it.

    Built by :meth:`MinutiaeMatcher.prepare`: positions ``(n, 2)``,
    direction angles ``(n,)``, local descriptors for ``k_neighbors``
    neighbours, and ``by_row``, the indices that sort the positions by
    row (stably), with ``sorted_rows`` the rows in that order.  An
    enrolled template is prepared once; a match reads it for every probe.
    """

    positions: np.ndarray
    angles: np.ndarray
    descriptors: np.ndarray
    k_neighbors: int
    by_row: np.ndarray
    sorted_rows: np.ndarray


class MinutiaeMatcher:
    """Configurable minutiae matcher; thread-safe (stateless per call)."""

    def __init__(self, distance_tolerance: float = 7.0,
                 angle_tolerance: float = 0.3,
                 k_neighbors: int = 4,
                 max_hypotheses: int = 64) -> None:
        if distance_tolerance <= 0 or angle_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if max_hypotheses < 1:
            raise ValueError("need at least one alignment hypothesis")
        self.distance_tolerance = float(distance_tolerance)
        self.angle_tolerance = float(angle_tolerance)
        self.k_neighbors = int(k_neighbors)
        self.max_hypotheses = int(max_hypotheses)

    def prepare(self, minutiae: list[Minutia]) -> PreparedMinutiae:
        """``minutiae`` as :meth:`match` reads them, built once."""
        positions, angles = minutiae_to_arrays(minutiae)
        by_row = np.argsort(positions[:, 0], kind="stable")
        return PreparedMinutiae(
            positions, angles,
            _local_descriptors(positions, angles, self.k_neighbors),
            self.k_neighbors, by_row, positions[by_row, 0])

    def _prepared(self, minutiae: list[Minutia] | PreparedMinutiae,
                  ) -> PreparedMinutiae:
        if not isinstance(minutiae, PreparedMinutiae):
            return self.prepare(minutiae)
        if minutiae.k_neighbors != self.k_neighbors:
            raise ValueError("minutiae prepared for another k_neighbors")
        return minutiae

    def match(self, template: list[Minutia] | PreparedMinutiae,
              probe: list[Minutia] | PreparedMinutiae) -> MatchResult:
        """Score ``probe`` against ``template``.

        Either side may come from :meth:`prepare`; the result is the same
        as for its minutiae.  Hypotheses are scored in batches of at most
        ``_PAIR_BUDGET`` candidate pairs; the first hypothesis reaching
        the best score wins.
        """
        template, probe = self._prepared(template), self._prepared(probe)
        pos_t, ang_t = template.positions, template.angles
        pos_p, ang_p = probe.positions, probe.angles
        n_t, n_p = len(pos_t), len(pos_p)
        best = MatchResult(0.0, 0, n_t, n_p, 0.0, (0.0, 0.0))
        if n_t == 0 or n_p == 0:
            return best

        cost = _descriptor_cost(template.descriptors, probe.descriptors,
                                self.k_neighbors)
        # Hypothesis h anchors probe minutia p_index[h] on template minutia
        # t_index[h]; rotation[h] turns the probe onto the template.
        flat_order = np.argsort(cost, axis=None)[: self.max_hypotheses]
        t_index, p_index = np.divmod(flat_order, n_p)
        rotation = np.mod(ang_t[t_index] - ang_p[p_index], 2 * np.pi)

        batch = max(1, _PAIR_BUDGET // (n_t * n_p))
        scores, matched = [], []
        for start in range(0, len(flat_order), batch):
            part = slice(start, start + batch)
            batch_scores, batch_matched = self._score_hypotheses(
                template, probe, t_index[part], p_index[part], rotation[part])
            scores.append(batch_scores)
            matched.extend(batch_matched)
        scores = np.concatenate(scores)
        winner = int(np.argmax(scores))
        if not scores[winner] > best.score:
            return best

        t, anchor = pos_t[t_index[winner]], pos_p[p_index[winner]]
        angle = float(rotation[winner])
        cos_r, sin_r = np.cos(angle), np.sin(angle)
        translation = (float(t[0] - anchor[0]), float(t[1] - anchor[1]))
        offset = (
            float(t[0] - (anchor[1] * sin_r + anchor[0] * cos_r)),
            float(t[1] - (anchor[1] * cos_r - anchor[0] * sin_r)),
        )
        return MatchResult(float(scores[winner]), matched[winner], n_t, n_p,
                           angle, translation, offset)

    def _score_hypotheses(self, template: PreparedMinutiae,
                          probe: PreparedMinutiae, t_index: np.ndarray,
                          p_index: np.ndarray,
                          rotation: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Overlap-normalized scores and matched-pair counts of a batch.

        Each hypothesis rotates the probe about its anchor minutia and
        translates the anchor onto its template minutia.  Template and
        transformed probe minutiae then pair greedily one-to-one within
        tolerance, closest first (the ``argsort`` order of the whole
        pair matrix, so ties resolve the same however the batch is cut).
        The score is ``matched^2 / (n_overlap * n_probe)``.
        """
        pos_t, ang_t = template.positions, template.angles
        pos_p, ang_p = probe.positions, probe.angles
        n_hyp, n_t, n_p = len(rotation), len(pos_t), len(pos_p)
        cos_r, sin_r = np.cos(rotation)[:, None], np.sin(rotation)[:, None]
        rel = pos_p[None, :, :] - pos_p[p_index][:, None, :]
        rotated = np.empty_like(rel)
        rotated[..., 0] = rel[..., 1] * sin_r + rel[..., 0] * cos_r
        rotated[..., 1] = rel[..., 1] * cos_r - rel[..., 0] * sin_r
        probe_pos = rotated + pos_t[t_index][:, None, :]  # (hyp, n_p, 2)

        # Template minutia i against probe minutia j under hypothesis h.
        # A distance is never below its row gap, so only template rows
        # within the tolerance of the probe's row need the exact test.
        # They come from a range search over the row-sorted template,
        # widened far past any rounding of the bounds; the exact row-gap
        # test then keeps exactly the pairs with |row gap| <= tol.
        tol = self.distance_tolerance
        probe_rows = probe_pos[..., 0].ravel()
        reach = tol + (np.abs(probe_rows) + tol) * 2.0**-40
        rows = template.sorted_rows
        lo = np.searchsorted(rows, probe_rows - reach, side="left")
        counts = np.searchsorted(rows, probe_rows + reach, side="right") - lo
        pair = np.repeat(np.arange(len(probe_rows)), counts)
        first = np.cumsum(counts) - counts
        i = template.by_row[np.arange(len(pair)) + (lo - first)[pair]]
        h, j = np.divmod(pair, n_p)
        dr = pos_t[i, 0] - probe_pos[h, j, 0]
        near = np.abs(dr) <= tol
        h, i, j, dr = h[near], i[near], j[near], dr[near]
        distance = np.hypot(dr, pos_t[i, 1] - probe_pos[h, j, 1])
        probe_angle = np.mod(ang_p[j] + rotation[h], 2 * np.pi)
        ok = (distance <= tol) & (_angle_difference(ang_t[i], probe_angle)
                                  <= self.angle_tolerance)
        h, i, j = h[ok], i[ok], j[ok]
        costs = np.full((n_hyp, n_t * n_p), np.inf)
        costs[h, i * n_p + j] = distance[ok]
        n_eligible = np.bincount(h, minlength=n_hyp).tolist()
        matched = []
        for order, count in zip(np.argsort(costs, axis=1), n_eligible):
            used_t, used_p = set(), set()
            for flat in order[:count].tolist():
                t, p = divmod(flat, n_p)
                if t not in used_t and p not in used_p:
                    used_t.add(t)
                    used_p.add(p)
            matched.append(len(used_t))

        # Only the template region the probe's footprint covers counts.
        centroid = probe_pos.mean(axis=1)
        spread = probe_pos - centroid[:, None, :]
        footprint = np.hypot(spread[..., 0], spread[..., 1]).max(axis=1) \
            + self.distance_tolerance
        t_spread = pos_t[None, :, :] - centroid[:, None, :]
        n_overlap = np.count_nonzero(
            np.hypot(t_spread[..., 0], t_spread[..., 1]) <= footprint[:, None],
            axis=1)
        counts = np.array(matched)
        scores = np.minimum(
            counts * counts / (np.maximum(n_overlap, n_p) * n_p), 1.0)
        return scores, matched
