"""Synthesis, impressions, minutiae, matching, quality, templates, datasets."""

import numpy as np
import pytest

from repro.fingerprint import (
    BIFURCATION,
    ENDING,
    CaptureCondition,
    DifficultyProfile,
    FingerprintClass,
    FingerprintTemplate,
    MinutiaeMatcher,
    QualityGate,
    assess_quality,
    build_dataset,
    enroll_from_impressions,
    minutiae_from_image,
    render_impression,
    synthesize_master,
)
from repro.fingerprint.scoremodel import (
    DEFAULT_FULL_MODEL,
    DEFAULT_PARTIAL_MODEL,
    CalibratedScoreModel,
)


class TestSynthesis:
    def test_deterministic_under_seed(self):
        a = synthesize_master("f", np.random.default_rng(5))
        b = synthesize_master("f", np.random.default_rng(5))
        assert np.allclose(a.image, b.image)
        assert a.pattern_name == b.pattern_name

    def test_different_seeds_different_fingers(self):
        a = synthesize_master("f", np.random.default_rng(5))
        b = synthesize_master("f", np.random.default_rng(6))
        assert not np.allclose(a.image, b.image)

    def test_image_in_unit_range(self, master_pair):
        for master in master_pair:
            assert (master.image >= 0).all() and (master.image <= 1).all()

    def test_realistic_minutiae_density(self, master_pair):
        for master in master_pair:
            count = len(minutiae_from_image(master.image))
            assert 15 <= count <= 90, f"unrealistic minutiae count {count}"

    def test_explicit_pattern_respected(self):
        master = synthesize_master(
            "f", np.random.default_rng(0), pattern=FingerprintClass.whorl())
        assert master.pattern_name == "whorl"

    def test_ridge_period_near_requested_wavelength(self):
        master = synthesize_master("f", np.random.default_rng(1), wavelength=9.0)
        # The dominant 2-D spatial frequency should sit near 1/9 cycles/px.
        img = master.image - master.image.mean()
        spectrum = np.abs(np.fft.fftshift(np.fft.fft2(img)))
        cy, cx = spectrum.shape[0] // 2, spectrum.shape[1] // 2
        spectrum[cy - 1:cy + 2, cx - 1:cx + 2] = 0.0  # drop DC neighbourhood
        peak = np.unravel_index(np.argmax(spectrum), spectrum.shape)
        radial_freq = np.hypot(peak[0] - cy, peak[1] - cx) / img.shape[0]
        period = 1.0 / radial_freq
        assert 7.5 < period < 11.0


class TestImpression:
    def test_full_press_covers_most_frame(self, master_pair):
        rng = np.random.default_rng(0)
        imp = render_impression(master_pair[0], CaptureCondition(), rng)
        assert imp.mask.mean() > 0.9

    def test_partial_press_is_partial(self, master_pair):
        rng = np.random.default_rng(0)
        imp = render_impression(
            master_pair[0],
            CaptureCondition(center=(96, 96), radius=40), rng)
        expected = np.pi * 40**2 / (192 * 192)
        assert abs(imp.mask.mean() - expected) < 0.05

    def test_identity_condition_reproduces_master(self, master_pair):
        rng = np.random.default_rng(0)
        imp = render_impression(
            master_pair[0], CaptureCondition(noise=0.0), rng)
        diff = np.abs(imp.image[imp.mask]
                      - master_pair[0].image[imp.mask]).mean()
        assert diff < 0.02

    def test_rotation_moves_content(self, master_pair):
        rng = np.random.default_rng(0)
        a = render_impression(master_pair[0], CaptureCondition(noise=0.0), rng)
        b = render_impression(
            master_pair[0], CaptureCondition(noise=0.0, rotation_deg=30), rng)
        assert np.abs(a.image - b.image).mean() > 0.05

    def test_noise_validation(self, master_pair):
        with pytest.raises(ValueError):
            render_impression(master_pair[0], CaptureCondition(noise=-1),
                              np.random.default_rng(0))

    def test_pressure_validation(self):
        with pytest.raises(ValueError):
            CaptureCondition(pressure=1.5).validate()

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            CaptureCondition(radius=-3.0).validate()

    def test_dropout_replaces_with_background(self, master_pair):
        rng = np.random.default_rng(0)
        imp = render_impression(
            master_pair[0], CaptureCondition(noise=0.0, dropout=0.5), rng)
        assert (imp.image[imp.mask] == 0.5).mean() > 0.3

    def test_output_shape_override(self, master_pair):
        rng = np.random.default_rng(0)
        imp = render_impression(master_pair[0], CaptureCondition(), rng,
                                output_shape=(96, 128))
        assert imp.image.shape == (96, 128)
        assert imp.mask.shape == (96, 128)


class TestMinutiae:
    def test_kinds_present(self, master_pair):
        minutiae = minutiae_from_image(master_pair[0].image)
        kinds = {m.kind for m in minutiae}
        assert kinds <= {ENDING, BIFURCATION}
        assert len(minutiae) > 10

    def test_minimum_separation_enforced(self, master_pair):
        minutiae = minutiae_from_image(master_pair[0].image)
        for i, a in enumerate(minutiae):
            for b in minutiae[i + 1:]:
                assert (a.row - b.row) ** 2 + (a.col - b.col) ** 2 >= 36.0

    def test_directions_in_range(self, master_pair):
        for m in minutiae_from_image(master_pair[0].image):
            assert 0.0 <= m.direction < 2 * np.pi

    def test_blank_image_yields_nothing(self):
        assert minutiae_from_image(np.full((96, 96), 0.5)) == []


class TestMatching:
    @pytest.fixture(scope="class")
    def matcher(self):
        return MinutiaeMatcher()

    def test_self_match_is_high(self, enrolled_pair, matcher):
        template = enrolled_pair[0]
        result = matcher.match(template.minutiae, template.minutiae)
        assert result.score > 0.85
        assert result.matched_pairs == template.size

    def test_empty_probe(self, enrolled_pair, matcher):
        result = matcher.match(enrolled_pair[0].minutiae, [])
        assert result.score == 0.0 and result.n_probe == 0

    def test_genuine_beats_impostor_full_press(self, master_pair, enrolled_pair,
                                               matcher):
        rng = np.random.default_rng(11)
        probe = render_impression(
            master_pair[0],
            CaptureCondition(rotation_deg=10.0, noise=0.05), rng)
        probe_minutiae = minutiae_from_image(probe.image, probe.mask)
        genuine = matcher.match(enrolled_pair[0].minutiae, probe_minutiae)
        impostor = matcher.match(enrolled_pair[1].minutiae, probe_minutiae)
        assert genuine.score > 0.25
        assert impostor.score < 0.15
        assert genuine.score > impostor.score + 0.1

    def test_partial_probe_genuine_beats_impostor_on_average(
            self, master_pair, enrolled_pair, matcher):
        rng = np.random.default_rng(23)
        genuine_scores, impostor_scores = [], []
        for _ in range(6):
            condition = CaptureCondition(
                center=(float(rng.uniform(60, 130)), float(rng.uniform(60, 130))),
                radius=48.0,
                rotation_deg=float(rng.uniform(-20, 20)),
                noise=0.05,
            )
            probe = render_impression(master_pair[0], condition, rng)
            probe_minutiae = minutiae_from_image(probe.image, probe.mask)
            if len(probe_minutiae) < 5:
                continue
            genuine_scores.append(
                matcher.match(enrolled_pair[0].minutiae, probe_minutiae).score)
            impostor_scores.append(
                matcher.match(enrolled_pair[1].minutiae, probe_minutiae).score)
        assert len(genuine_scores) >= 3
        assert np.mean(genuine_scores) > np.mean(impostor_scores) + 0.08

    def test_rotation_recovered(self, master_pair, enrolled_pair, matcher):
        rng = np.random.default_rng(31)
        probe = render_impression(
            master_pair[0],
            CaptureCondition(rotation_deg=20.0, noise=0.03), rng)
        probe_minutiae = minutiae_from_image(probe.image, probe.mask)
        result = matcher.match(enrolled_pair[0].minutiae, probe_minutiae)
        recovered_deg = np.degrees(
            np.mod(result.rotation + np.pi, 2 * np.pi) - np.pi)
        assert abs(abs(recovered_deg) - 20.0) < 8.0

    def test_invalid_tolerances(self):
        with pytest.raises(ValueError):
            MinutiaeMatcher(distance_tolerance=0)
        with pytest.raises(ValueError):
            MinutiaeMatcher(angle_tolerance=-1)
        with pytest.raises(ValueError):
            MinutiaeMatcher(max_hypotheses=0)

    def test_score_in_unit_range(self, enrolled_pair, matcher):
        result = matcher.match(enrolled_pair[0].minutiae,
                               enrolled_pair[1].minutiae)
        assert 0.0 <= result.score <= 1.0


class TestQuality:
    def test_clean_full_press_scores_high(self, master_pair):
        rng = np.random.default_rng(0)
        imp = render_impression(master_pair[0],
                                CaptureCondition(noise=0.02), rng)
        assert assess_quality(imp).score > 0.5

    def test_fast_motion_degrades_quality(self, master_pair):
        rng = np.random.default_rng(0)
        clean = render_impression(master_pair[0],
                                  CaptureCondition(noise=0.02), rng)
        blurred = render_impression(
            master_pair[0],
            CaptureCondition(noise=0.02, motion_px=6.0), rng)
        assert assess_quality(blurred).score < assess_quality(clean).score

    def test_tiny_contact_degrades_quality(self, master_pair):
        rng = np.random.default_rng(0)
        full = render_impression(master_pair[0],
                                 CaptureCondition(noise=0.02), rng)
        tiny = render_impression(
            master_pair[0],
            CaptureCondition(center=(96, 96), radius=14, noise=0.02), rng)
        assert assess_quality(tiny).score < assess_quality(full).score

    def test_empty_contact_scores_zero(self, master_pair):
        rng = np.random.default_rng(0)
        imp = render_impression(
            master_pair[0],
            CaptureCondition(center=(-500, -500), radius=10), rng)
        assert assess_quality(imp).score == 0.0

    def test_gate_counts(self, master_pair):
        rng = np.random.default_rng(0)
        gate = QualityGate(threshold=0.35)
        good = render_impression(master_pair[0],
                                 CaptureCondition(noise=0.02), rng)
        bad = render_impression(
            master_pair[0],
            CaptureCondition(center=(96, 96), radius=12, motion_px=8.0,
                             noise=0.2), rng)
        passed_good, _ = gate.evaluate(good)
        passed_bad, _ = gate.evaluate(bad)
        assert passed_good and not passed_bad

    def test_gate_threshold_validation(self):
        with pytest.raises(ValueError):
            QualityGate(threshold=1.5)


class TestTemplates:
    def test_serialization_roundtrip(self, enrolled_pair):
        template = enrolled_pair[0]
        restored = FingerprintTemplate.from_bytes(template.to_bytes())
        assert restored.finger_id == template.finger_id
        assert restored.size == template.size
        assert restored.minutiae == template.minutiae

    def test_enrollment_needs_impressions(self):
        with pytest.raises(ValueError):
            enroll_from_impressions("f", [])

    def test_multi_impression_enrollment_not_smaller(self, master_pair):
        rng = np.random.default_rng(4)
        conditions = [CaptureCondition(noise=0.03) for _ in range(3)]
        imps = [render_impression(master_pair[0], c, rng) for c in conditions]
        single = enroll_from_impressions("f", imps[:1])
        multi = enroll_from_impressions("f", imps)
        assert multi.size >= single.size
        assert multi.source_impressions == 3


class TestDataset:
    @pytest.fixture(scope="class")
    def dataset(self):
        return build_dataset("unit", n_fingers=3, n_impressions=2,
                             profile=DifficultyProfile.enrollment_grade(),
                             seed=77, master_shape=(128, 128))

    def test_structure(self, dataset):
        assert len(dataset.masters) == 3
        assert all(len(v) == 2 for v in dataset.impressions.values())

    def test_deterministic(self):
        a = build_dataset("d", 2, 1, DifficultyProfile.enrollment_grade(),
                          seed=5, master_shape=(96, 96))
        b = build_dataset("d", 2, 1, DifficultyProfile.enrollment_grade(),
                          seed=5, master_shape=(96, 96))
        assert np.allclose(a.impressions[a.finger_ids[0]][0].image,
                           b.impressions[b.finger_ids[0]][0].image)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            build_dataset("d", 0, 1, DifficultyProfile.enrollment_grade(), seed=1)

    def test_touch_grade_is_partial(self):
        ds = build_dataset("t", 1, 3, DifficultyProfile.touch_grade(),
                           seed=9, master_shape=(192, 192))
        coverages = [imp.mask.mean()
                     for imp in ds.impressions[ds.finger_ids[0]]]
        # An 80-px contact on a 192-px master covers at most ~55 %.
        assert all(c < 0.65 for c in coverages)


def _samples(model, genuine, n, rng):
    return np.array([model.sample(genuine, rng) for _ in range(n)])


class TestScoreModel:
    def test_sampling_ranges(self):
        rng = np.random.default_rng(0)
        for genuine in (True, False):
            scores = _samples(DEFAULT_PARTIAL_MODEL, genuine, 500, rng)
            assert (scores >= 0).all() and (scores <= 1).all()

    def test_genuine_higher_than_impostor(self):
        rng = np.random.default_rng(0)
        g = _samples(DEFAULT_PARTIAL_MODEL, True, 2000, rng).mean()
        i = _samples(DEFAULT_PARTIAL_MODEL, False, 2000, rng).mean()
        assert g > i + 0.2

    def test_full_model_stronger_than_partial(self):
        rng = np.random.default_rng(0)
        full = _samples(DEFAULT_FULL_MODEL, True, 2000, rng).mean()
        partial = _samples(DEFAULT_PARTIAL_MODEL, True, 2000, rng).mean()
        assert full > partial

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            CalibratedScoreModel(np.array([]), np.array([0.1]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CalibratedScoreModel(np.array([1.2]), np.array([0.1]))

    def test_deterministic_under_rng(self):
        a = _samples(DEFAULT_PARTIAL_MODEL, True, 10, np.random.default_rng(3))
        b = _samples(DEFAULT_PARTIAL_MODEL, True, 10, np.random.default_rng(3))
        assert np.allclose(a, b)
