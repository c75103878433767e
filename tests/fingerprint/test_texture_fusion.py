"""Ridge-texture descriptors and score-level fusion (paper ref [12])."""

import numpy as np
import pytest

from repro.fingerprint import (
    CaptureCondition,
    FusedMatcher,
    MinutiaeMatcher,
    TextureDescriptor,
    enroll_master,
    minutiae_from_image,
    render_impression,
    synthesize_master,
    texture_similarity,
)


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(9)
    master_a = synthesize_master("tex-a", rng)
    master_b = synthesize_master("tex-b", rng)
    return master_a, master_b


@pytest.fixture(scope="module")
def descriptors(pair):
    out = {}
    for master in pair:
        impression = render_impression(
            master, CaptureCondition(noise=0.02), np.random.default_rng(0))
        out[master.finger_id] = TextureDescriptor.from_image(
            impression.image, impression.mask)
    return out


class TestDescriptor:
    def test_shapes_and_ranges(self, descriptors):
        descriptor = descriptors["tex-a"]
        assert descriptor.orientation.shape == descriptor.weight.shape
        assert (descriptor.orientation >= 0).all()
        assert (descriptor.orientation < np.pi + 1e-9).all()
        assert (descriptor.weight >= 0).all() and (descriptor.weight <= 1).all()

    def test_foreground_cells_have_weight(self, descriptors):
        descriptor = descriptors["tex-a"]
        assert (descriptor.weight > 0.05).sum() > 100

    def test_blank_image_has_no_live_cells(self):
        descriptor = TextureDescriptor.from_image(np.full((96, 96), 0.5))
        positions, _, _ = descriptor.pixel_points()
        assert len(positions) == 0


class TestSimilarity:
    def test_self_similarity_high(self, descriptors):
        descriptor = descriptors["tex-a"]
        score = texture_similarity(descriptor, descriptor, 0.0, (0.0, 0.0))
        assert score > 0.85

    def test_cross_finger_lower(self, descriptors):
        a, b = descriptors["tex-a"], descriptors["tex-b"]
        self_score = texture_similarity(a, a, 0.0, (0.0, 0.0))
        cross_score = texture_similarity(a, b, 0.0, (0.0, 0.0))
        assert cross_score < self_score

    def test_no_overlap_scores_zero(self, descriptors):
        a = descriptors["tex-a"]
        assert texture_similarity(a, a, 0.0, (10000.0, 10000.0)) == 0.0

    def test_empty_probe_scores_zero(self, descriptors):
        empty = TextureDescriptor.from_image(np.full((96, 96), 0.5))
        assert texture_similarity(descriptors["tex-a"], empty, 0.0,
                                  (0.0, 0.0)) == 0.0

    def test_alignment_recovers_rotation(self, pair, descriptors):
        """A rotated probe scores high under the matcher's alignment."""
        master_a, _ = pair
        rng = np.random.default_rng(3)
        probe = render_impression(
            master_a, CaptureCondition(rotation_deg=15.0, noise=0.03), rng)
        probe_descriptor = TextureDescriptor.from_image(probe.image,
                                                        probe.mask)
        template = enroll_master(master_a, np.random.default_rng(4))
        probe_minutiae = minutiae_from_image(probe.image, probe.mask)
        result = MinutiaeMatcher().match(template.minutiae, probe_minutiae)
        assert result.matched_pairs > 0
        aligned = texture_similarity(descriptors["tex-a"], probe_descriptor,
                                     result.rotation, result.offset)
        unaligned = texture_similarity(descriptors["tex-a"],
                                       probe_descriptor, 0.0, (0.0, 0.0))
        assert aligned > unaligned


class TestFusedMatcher:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            FusedMatcher(minutiae_weight=1.5)

    def test_fused_separation(self, pair, descriptors):
        master_a, master_b = pair
        rng = np.random.default_rng(5)
        template_a = enroll_master(master_a, np.random.default_rng(6))
        template_b = enroll_master(master_b, np.random.default_rng(7))
        fused = FusedMatcher()
        genuine_scores, impostor_scores = [], []
        for _ in range(5):
            condition = CaptureCondition(
                center=(float(rng.uniform(70, 120)),
                        float(rng.uniform(70, 120))),
                radius=55.0, rotation_deg=float(rng.uniform(-15, 15)),
                noise=0.05)
            probe = render_impression(master_a, condition, rng)
            probe_minutiae = minutiae_from_image(probe.image, probe.mask)
            if len(probe_minutiae) < 4:
                continue
            probe_texture = TextureDescriptor.from_image(probe.image,
                                                         probe.mask)
            genuine_scores.append(fused.match(
                template_a.minutiae, descriptors["tex-a"],
                probe_minutiae, probe_texture).score)
            impostor_scores.append(fused.match(
                template_b.minutiae, descriptors["tex-b"],
                probe_minutiae, probe_texture).score)
        assert np.mean(genuine_scores) > np.mean(impostor_scores) + 0.1

    def test_no_minutiae_alignment_falls_back(self, descriptors):
        fused = FusedMatcher(minutiae_weight=0.6)
        result = fused.match([], descriptors["tex-a"], [],
                             descriptors["tex-a"])
        assert result.score == 0.0
        assert result.texture_score == 0.0

    def test_result_contains_components(self, pair, descriptors):
        master_a, _ = pair
        rng = np.random.default_rng(8)
        template = enroll_master(master_a, np.random.default_rng(9))
        probe = render_impression(master_a,
                                  CaptureCondition(noise=0.03), rng)
        probe_minutiae = minutiae_from_image(probe.image, probe.mask)
        probe_texture = TextureDescriptor.from_image(probe.image, probe.mask)
        result = FusedMatcher().match(template.minutiae,
                                      descriptors["tex-a"],
                                      probe_minutiae, probe_texture)
        assert 0.0 <= result.texture_score <= 1.0
        assert result.score == pytest.approx(
            0.6 * result.minutiae.score + 0.4 * result.texture_score)
