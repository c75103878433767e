"""Contextual Gabor enhancement and its integration in the processor."""

import numpy as np
import pytest

from repro.fingerprint import (
    CaptureCondition,
    MinutiaeMatcher,
    enhance,
    enroll_master,
    minutiae_from_image,
    minutiae_with_enhancement,
    render_impression,
    synthesize_master,
)
from repro.flock.fingerprint_processor import (
    ENHANCED_ACCEPT_THRESHOLD,
    IMAGE_ACCEPT_THRESHOLD,
)


@pytest.fixture(scope="module")
def master():
    return synthesize_master("enh-f", np.random.default_rng(3))


@pytest.fixture(scope="module")
def template(master):
    return enroll_master(master, np.random.default_rng(4))


def _noisy_probe(master, rng):
    condition = CaptureCondition(
        center=(float(rng.uniform(70, 120)), float(rng.uniform(70, 120))),
        radius=70.0, rotation_deg=float(rng.uniform(-15, 15)),
        noise=0.15, dropout=0.10, pressure=0.3)
    return render_impression(master, condition, rng)


class TestEnhance:
    def test_output_ranges(self, master):
        rng = np.random.default_rng(0)
        probe = _noisy_probe(master, rng)
        result = enhance(probe.image, probe.mask)
        assert result.image.shape == probe.image.shape
        assert (result.image >= 0).all() and (result.image <= 1).all()
        assert result.mask.dtype == bool

    def test_background_stays_neutral(self, master):
        rng = np.random.default_rng(1)
        probe = _noisy_probe(master, rng)
        result = enhance(probe.image, probe.mask)
        assert np.allclose(result.image[~probe.mask], 0.5)

    def test_flat_image_is_neutral(self):
        result = enhance(np.full((64, 64), 0.5))
        assert np.allclose(result.image, 0.5)

    def test_enhancement_recovers_noisy_genuine_scores(self, master,
                                                       template):
        rng = np.random.default_rng(5)
        matcher = MinutiaeMatcher()
        raw_scores, enhanced_scores = [], []
        for _ in range(6):
            probe = _noisy_probe(master, rng)
            raw = minutiae_from_image(probe.image, probe.mask)
            enhanced = minutiae_with_enhancement(probe.image, probe.mask)
            raw_scores.append(matcher.match(template.minutiae, raw).score)
            enhanced_scores.append(
                matcher.match(template.minutiae, enhanced).score)
        assert np.mean(enhanced_scores) > np.mean(raw_scores) + 0.05

    def test_enhancement_does_not_create_impostor_matches(self, template):
        impostor = synthesize_master("enh-imp", np.random.default_rng(77))
        rng = np.random.default_rng(6)
        matcher = MinutiaeMatcher()
        scores = []
        for _ in range(6):
            probe = _noisy_probe(impostor, rng)
            enhanced = minutiae_with_enhancement(probe.image, probe.mask)
            scores.append(matcher.match(template.minutiae, enhanced).score)
        assert max(scores) < 0.16  # below the enhanced-pass threshold


class TestMaskShape:
    """A mask must have the image's exact shape.

    A (1, 192) or (192, 1) all-True mask broadcasts to a 192 x 192 frame,
    and both extractors would silently find no minutiae through it.
    """

    @pytest.fixture(scope="class")
    def capture(self, master):
        return render_impression(master, CaptureCondition(rotation_deg=10.0),
                                 np.random.default_rng(1))

    def test_own_mask_extracts(self, capture):
        assert len(minutiae_from_image(capture.image, capture.mask)) == 56
        assert enhance(capture.image, capture.mask).mask is capture.mask

    @pytest.mark.parametrize("shape", [(1, 192), (192, 1), (191, 192),
                                       (192, 192, 1)])
    @pytest.mark.parametrize("extract", [enhance, minutiae_with_enhancement,
                                         minutiae_from_image])
    def test_other_shapes_raise(self, capture, extract, shape):
        with pytest.raises(ValueError, match="mask and image shapes differ"):
            extract(capture.image, np.ones(shape, dtype=bool))


class TestProcessorIntegration:
    def test_enhancement_pass_counter_increments(self, master, template):
        """Touches that fail the raw pass trigger the enhancement pass."""
        from repro.net import MobileDevice
        device = MobileDevice("enh-dev", b"enh-seed")
        device.flock.enroll_local_user(template)
        rng = np.random.default_rng(7)
        impostor = synthesize_master("enh-imp2", np.random.default_rng(88))
        for i in range(6):
            device.touch_at(28.0, 80.0, float(i), impostor, rng)
        processor = device.flock._local_processor
        assert processor.enhancement_passes > 0

    def test_enhanced_pass_accepts_at_its_own_threshold(self, master,
                                                       template):
        """A raw-pass accept needs IMAGE_ACCEPT_THRESHOLD; an accept that
        took the enhancement pass needs the stricter enhanced threshold."""
        from repro.net import MobileDevice
        device = MobileDevice("enh-dev2", b"enh-seed")
        device.flock.enroll_local_user(template)
        processor = device.flock._local_processor
        rng = np.random.default_rng(7)
        impostor = synthesize_master("enh-imp2", np.random.default_rng(88))
        enhanced_accepts = 0
        for i in range(18):
            finger = master if i < 12 else impostor
            passes = processor.enhancement_passes
            _, event = device.touch_at(28.0, 80.0, float(i), finger, rng,
                                       pressure=[0.5, 0.3, 0.2][i % 3])
            decision = event.decision
            assert decision.accepted == (
                decision.quality_ok
                and decision.score >= IMAGE_ACCEPT_THRESHOLD)
            if decision.accepted and processor.enhancement_passes > passes:
                assert decision.score >= ENHANCED_ACCEPT_THRESHOLD
                enhanced_accepts += 1
        assert enhanced_accepts > 0
