"""The vectorized image kernels against their loop and whole-frame oracles.

``reference.py`` keeps the one-at-a-time and whole-frame formulations;
every property here demands exact equality with them
(``dataclasses.astuple`` of ``MatchResult``, ``np.array_equal`` arrays,
equal minutiae lists), not closeness.  Point orientations are held to the
full-frame ``estimate_orientation``, and the Gabor bank to per-bin
``fftconvolve``.  The known answers pin the whole capture -> quality ->
skeleton -> minutiae -> match path on captures of the harness's standard
deployment, and the masters and one enhancement pass by their bytes.
"""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from repro.eval import standard_deployment
from repro.eval.harness import LOGIN_BUTTON_XY
from repro.fingerprint import (
    CaptureCondition,
    GaborBank,
    Minutia,
    MinutiaeMatcher,
    QualityGate,
    assess_quality,
    binarize,
    enhance,
    extract_minutiae,
    local_contrast,
    minutiae_from_image,
    minutiae_with_enhancement,
    orientation_coherence,
    render_impression,
    synthesize_master,
    zhang_suen_thin,
)
from repro.fingerprint.impression import _bilinear
from repro.fingerprint.matching import (
    _PAIR_BUDGET,
    _local_descriptors,
    minutiae_to_arrays,
)
from repro.fingerprint.minutiae import _border_interior, _crossing_number
from repro.fingerprint.image_ops import ridge_statistics
from repro.fingerprint.orientation import _orientation_at, estimate_orientation
from repro.fingerprint.synthesis import MasterFingerprint
from repro.flock import ImageFingerprintProcessor
from repro.hardware import TouchEvent, TouchPanel

from . import reference

TWO_PI = 2.0 * np.pi


def _minutia(row, col, direction, kind="ending"):
    return Minutia(float(row), float(col), float(direction), kind)


def _random_set(rng, n, span=192.0):
    return [_minutia(*rng.uniform(0.0, span, 2), rng.uniform(0.0, TWO_PI))
            for _ in range(n)]


#: Minutiae on a small integer grid, so sets often hold exact duplicates
#: (zero-distance ties) and equal pair distances.
grid_minutiae = st.builds(
    _minutia,
    st.integers(0, 12), st.integers(0, 12),
    st.sampled_from([0.0, 0.5, 1.0, np.pi, 5.0]),
    st.sampled_from(["ending", "bifurcation"]),
)
#: Minutiae anywhere in a capture frame with any direction.
free_minutiae = st.builds(
    _minutia,
    st.floats(0.0, 192.0), st.floats(0.0, 192.0), st.floats(0.0, 6.283),
)
minutiae_sets = st.one_of(st.lists(grid_minutiae, max_size=25),
                          st.lists(free_minutiae, max_size=40))
matchers = st.builds(
    MinutiaeMatcher,
    distance_tolerance=st.floats(0.5, 30.0),
    angle_tolerance=st.sampled_from([1e-300, 0.05, 0.3, 1.0, 4.0]),
    k_neighbors=st.integers(0, 8),
    max_hypotheses=st.sampled_from([1, 3, 64, 1000]),
)


def _oracle_match(matcher, template, probe):
    return reference.match(
        template, probe, distance_tolerance=matcher.distance_tolerance,
        angle_tolerance=matcher.angle_tolerance,
        k_neighbors=matcher.k_neighbors,
        max_hypotheses=matcher.max_hypotheses)


def _assert_same_match(matcher, template, probe):
    got = matcher.match(template, probe)
    want = _oracle_match(matcher, template, probe)
    assert dataclasses.astuple(got) == dataclasses.astuple(want)
    assert type(got.matched_pairs) is int and type(got.score) is float
    return got


class TestMatcherOracle:
    @settings(max_examples=150, deadline=None)
    @given(matchers, minutiae_sets, minutiae_sets)
    def test_random_sets_match_exactly(self, matcher, template, probe):
        _assert_same_match(matcher, template, probe)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(grid_minutiae, min_size=1, max_size=20),
           st.lists(grid_minutiae, min_size=1, max_size=20),
           st.floats(0.5, 6.0))
    def test_every_hypothesis_scores_exactly(self, template, probe, tolerance):
        # Every (template, probe) anchor, not only the winner: on a grid,
        # equal distances make the greedy pairing depend on tie order.
        matcher = MinutiaeMatcher(distance_tolerance=tolerance)
        pos_t, ang_t = minutiae_to_arrays(template)
        pos_p, ang_p = minutiae_to_arrays(probe)
        t_index = np.repeat(np.arange(len(pos_t)), len(pos_p))
        p_index = np.tile(np.arange(len(pos_p)), len(pos_t))
        rotation = np.mod(ang_t[t_index] - ang_p[p_index], TWO_PI)
        scores, matched = matcher._score_hypotheses(
            matcher.prepare(template), matcher.prepare(probe), t_index,
            p_index, rotation)
        assert [(float(s), m) for s, m in zip(scores, matched)] == [
            reference.score_hypothesis(pos_t, ang_t, pos_p, ang_p, t, p,
                                       tolerance, matcher.angle_tolerance)
            for t, p in zip(t_index, p_index)]

    @settings(max_examples=60, deadline=None)
    @given(minutiae_sets, st.integers(0, 12))
    def test_descriptors_match_exactly(self, minutiae, k_neighbors):
        positions = np.array([[m.row, m.col] for m in minutiae]).reshape(-1, 2)
        angles = np.array([m.direction for m in minutiae])
        assert np.array_equal(
            _local_descriptors(positions, angles, k_neighbors),
            reference.local_descriptors(positions, angles, k_neighbors))

    @pytest.mark.parametrize("n_template, n_probe", [(0, 0), (0, 5), (5, 0),
                                                     (1, 1), (1, 7), (7, 1)])
    def test_empty_and_single_minutia_sets(self, n_template, n_probe):
        rng = np.random.default_rng(n_template * 10 + n_probe)
        _assert_same_match(MinutiaeMatcher(), _random_set(rng, n_template),
                           _random_set(rng, n_probe))

    def test_more_neighbours_than_minutiae(self):
        rng = np.random.default_rng(3)
        template, probe = _random_set(rng, 3), _random_set(rng, 4)
        _assert_same_match(MinutiaeMatcher(k_neighbors=9), template, probe)

    def test_duplicate_minutiae_tie_at_zero_distance(self):
        base = [_minutia(20, 20, 1.0), _minutia(20, 26, 1.1),
                _minutia(26, 20, 0.9)]
        template = base + base[:2]
        probe = base[::-1] + base
        result = _assert_same_match(MinutiaeMatcher(), template, probe)
        assert result.matched_pairs == len(template)  # every copy pairs

    def test_tied_pairs_resolve_in_whole_matrix_argsort_order(self):
        # Under the identity hypothesis (anchor 0 on anchor 0) each row
        # offers three pairs at distance 1, and taking (t0, p0) first
        # blocks the other two: the count depends on tie order.  With
        # numpy 2.4 the loop matches 40 here, while a stable sort of the
        # eligible pairs would give 21.
        template, probe = [_minutia(0, 300, 1.0)], [_minutia(0, 300, 1.0)]
        for k in range(20):
            template += [_minutia(10 * k, 0, 1.0), _minutia(10 * k, 2, 1.0)]
            probe += [_minutia(10 * k, 1, 1.0), _minutia(10 * k, -1, 1.0)]
        matcher = MinutiaeMatcher(distance_tolerance=2.0)
        pos_t, ang_t = minutiae_to_arrays(template)
        pos_p, ang_p = minutiae_to_arrays(probe)
        anchor = np.zeros(1, dtype=np.int64)
        scores, matched = matcher._score_hypotheses(
            matcher.prepare(template), matcher.prepare(probe), anchor, anchor,
            np.zeros(1))
        want = reference.score_hypothesis(pos_t, ang_t, pos_p, ang_p, 0, 0,
                                          2.0, matcher.angle_tolerance)
        assert (float(scores[0]), matched[0]) == want
        _assert_same_match(matcher, template, probe)

    def test_large_probes_span_several_batches(self):
        rng = np.random.default_rng(33)
        template = _random_set(rng, 33)
        for n_probe in (300, 360):
            probe = _random_set(rng, n_probe)
            assert 33 * n_probe * 64 > 4 * _PAIR_BUDGET
            _assert_same_match(MinutiaeMatcher(), template, probe)

    def test_hypothesis_without_eligible_pair_scores_zero(self):
        # The aligned anchor direction lands 4.4e-16 off the template's,
        # outside a 1e-300 tolerance: no pair is ever eligible.
        matcher = MinutiaeMatcher(angle_tolerance=1e-300)
        result = _assert_same_match(matcher, [_minutia(10, 10, 0.1)],
                                    [_minutia(50, 50, 0.3)])
        assert result.matched_pairs == 0 and result.score == 0.0

    @settings(max_examples=100, deadline=None)
    @given(matchers, minutiae_sets, minutiae_sets, st.booleans(),
           st.booleans())
    def test_prepared_sets_match_exactly(self, matcher, template, probe,
                                         prepare_template, prepare_probe):
        got = matcher.match(
            matcher.prepare(template) if prepare_template else template,
            matcher.prepare(probe) if prepare_probe else probe)
        want = _oracle_match(matcher, template, probe)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)

    def test_sets_prepared_for_other_neighbours_raise(self):
        rng = np.random.default_rng(4)
        prepared = MinutiaeMatcher(k_neighbors=3).prepare(_random_set(rng, 6))
        with pytest.raises(ValueError, match="k_neighbors"):
            MinutiaeMatcher().match(prepared, _random_set(rng, 6))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(grid_minutiae, min_size=1, max_size=15),
           st.lists(grid_minutiae, min_size=1, max_size=15),
           st.sampled_from([1.0, 2.0, 3.0, 5.0]),
           st.sampled_from([0.0, -250.0, 1e6, 3e9]))
    def test_row_gaps_at_the_tolerance(self, template, probe, tolerance,
                                       shift):
        # Integer rows and tolerances put many pairs exactly on the
        # row-gap bound the range search widens; far from the origin the
        # bounds round coarsely.
        def moved(minutiae):
            return [_minutia(m.row + shift, m.col - shift, m.direction,
                             m.kind) for m in minutiae]
        _assert_same_match(MinutiaeMatcher(distance_tolerance=tolerance),
                           moved(template), moved(probe))


class TestThinningOracle:
    @settings(max_examples=80, deadline=None)
    @given(arrays(bool, st.tuples(st.integers(0, 40), st.integers(0, 40))))
    def test_random_images_thin_exactly(self, image):
        assert np.array_equal(zhang_suen_thin(image),
                              reference.zhang_suen_thin(image))

    @pytest.mark.parametrize("density", [0.3, 0.5, 0.8])
    def test_dense_frames_thin_exactly(self, density):
        image = np.random.default_rng(7).random((96, 96)) < density
        got = zhang_suen_thin(image)
        assert got.dtype == bool
        assert np.array_equal(got, reference.zhang_suen_thin(image))

    def test_iteration_cap_is_respected(self):
        image = np.ones((30, 30), dtype=bool)
        for cap in (0, 1, 2):
            assert np.array_equal(zhang_suen_thin(image, max_iterations=cap),
                                  reference.zhang_suen_thin(image, cap))


class TestExtractionOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.2, 0.8),
           st.integers(0, 6), st.sampled_from([0.0, 2.5, 6.0, 11.0]))
    def test_random_skeletons_extract_exactly(self, seed, density,
                                              border_margin, min_separation):
        rng = np.random.default_rng(seed)
        skeleton = zhang_suen_thin(rng.random((48, 48)) < density)
        mask = rng.random((48, 48)) < 0.9
        orientation = rng.uniform(0.0, np.pi, (48, 48))
        kwargs = dict(border_margin=border_margin,
                      min_separation=min_separation)
        assert extract_minutiae(skeleton, mask, orientation, **kwargs) \
            == reference.extract_minutiae(skeleton, mask, orientation,
                                          **kwargs)

    def test_raw_skeleton_detections_extract_exactly(self):
        # Unthinned noise: over a thousand raw detections, most dropped.
        rng = np.random.default_rng(11)
        skeleton = rng.random((96, 96)) < 0.35
        mask = np.ones((96, 96), dtype=bool)
        orientation = rng.uniform(0.0, np.pi, (96, 96))
        got = extract_minutiae(skeleton, mask, orientation, border_margin=1)
        assert got == reference.extract_minutiae(skeleton, mask, orientation,
                                                 border_margin=1)
        assert len(got) > 50


def _sampled_exactly(image, rows, cols):
    """``_bilinear`` in frame and 0.5 off it equal ``map_coordinates``."""
    want = reference.sample_bilinear(image, rows, cols)
    inside = ((rows >= 0) & (rows <= image.shape[0] - 1)
              & (cols >= 0) & (cols <= image.shape[1] - 1))
    assert np.all(want[~inside] == 0.5)
    assert np.array_equal(_bilinear(image, rows[inside], cols[inside]),
                          want[inside])


#: Coordinates on exact integers, on the last row/column, just past it,
#: and far outside the frame, mixed with arbitrary ones.
_edge_coordinates = st.one_of(
    st.floats(-3.0, 45.0), st.integers(-2, 42).map(float),
    st.sampled_from([-0.0, -1e-12, 0.5, 1e-300]))


class TestSamplerOracle:
    @settings(max_examples=80, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 30),
                                        st.integers(1, 30)),
                  elements=st.floats(0.0, 1.0)),
           st.integers(0, 2**32 - 1))
    def test_random_images_sample_exactly(self, image, seed):
        rng = np.random.default_rng(seed)
        n_rows, n_cols = image.shape
        rows = rng.uniform(-2.0, n_rows + 1.0, 400)
        cols = rng.uniform(-2.0, n_cols + 1.0, 400)
        _sampled_exactly(image, rows, cols)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40),
           st.lists(st.tuples(_edge_coordinates, _edge_coordinates),
                    min_size=1, max_size=60),
           st.integers(0, 2**32 - 1))
    def test_integer_edge_and_outside_coordinates(self, n_rows, n_cols,
                                                  points, seed):
        image = np.random.default_rng(seed).random((n_rows, n_cols))
        rows = np.array([r for r, _ in points])
        cols = np.array([c for _, c in points])
        # The last row and column, exactly, on every image shape.
        rows = np.append(rows, [n_rows - 1.0, n_rows - 1.0, 0.0])
        cols = np.append(cols, [n_cols - 1.0, 0.0, n_cols - 1.0])
        _sampled_exactly(image, rows, cols)


#: Capture conditions over every render branch: masked or full-frame
#: (motion blur), distorted or rigid, full or partial contact, centred or
#: overhanging the master edge.
conditions = st.builds(
    CaptureCondition,
    center=st.one_of(st.none(), st.tuples(st.floats(-20.0, 60.0),
                                          st.floats(-20.0, 60.0))),
    radius=st.one_of(st.none(), st.floats(2.0, 40.0)),
    rotation_deg=st.floats(-45.0, 45.0),
    translation=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    distortion=st.sampled_from([0.0, 0.0, 2.0]),
    pressure=st.floats(0.0, 1.0),
    motion_px=st.sampled_from([0.0, 0.0, 0.4, 2.0, 3.6]),
    noise=st.sampled_from([0.0, 0.05]),
    dropout=st.sampled_from([0.0, 0.1]),
)


class TestRenderOracle:
    @settings(max_examples=80, deadline=None)
    @given(conditions, st.sampled_from([None, (31, 36), (48, 20)]),
           st.integers(0, 2**32 - 1))
    def test_random_conditions_render_exactly(self, condition, shape, seed):
        image = np.random.default_rng(seed).random((40, 44))
        master = MasterFingerprint("oracle", "random", image,
                                   np.zeros_like(image), 8.5)
        got = render_impression(master, condition,
                                np.random.default_rng(seed),
                                output_shape=shape)
        want = reference.render_impression(master, condition,
                                           np.random.default_rng(seed),
                                           output_shape=shape)
        assert np.array_equal(got.image, want.image)
        assert np.array_equal(got.mask, want.mask)


def _orientations_exactly(image, rows, cols, block, smooth_sigma=2.0):
    if min(image.shape) < 2:  # no central difference to take
        with pytest.raises(IndexError):
            estimate_orientation(image, block, smooth_sigma)
        with pytest.raises(IndexError):
            ridge_statistics(image, block)
        return
    want = estimate_orientation(image, block, smooth_sigma)[rows, cols]
    statistics = ridge_statistics(image, block)
    assert np.array_equal(
        _orientation_at(statistics, rows, cols, smooth_sigma), want)


class TestPointOrientationOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([1, 3, 12]))
    def test_full_field_matches_generic_filters(self, n_rows, n_cols, seed,
                                                block):
        image = np.random.default_rng(seed).random((n_rows, n_cols))
        assert np.array_equal(estimate_orientation(image, block=block),
                              reference.estimate_orientation(image, block))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([3, 12]), st.sampled_from([0.7, 2.0, 3.3]))
    def test_every_pixel_exactly(self, n_rows, n_cols, seed, block,
                                 smooth_sigma):
        image = np.random.default_rng(seed).random((n_rows, n_cols))
        rows, cols = np.indices(image.shape).reshape(2, -1)
        _orientations_exactly(image, rows, cols, block, smooth_sigma)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
           st.data())
    def test_single_pixel_queries(self, n_rows, n_cols, seed, data):
        image = np.random.default_rng(seed).random((n_rows, n_cols))
        row = data.draw(st.integers(0, n_rows - 1))
        col = data.draw(st.integers(0, n_cols - 1))
        _orientations_exactly(image, np.array([row]), np.array([col]), 12)

    def test_ridge_frame_kept_detections(self, deployment):
        impression = render_impression(deployment.user_master,
                                       CaptureCondition(rotation_deg=10.0),
                                       np.random.default_rng(1))
        image = impression.image
        rows, cols = np.nonzero(np.random.default_rng(2).random(image.shape)
                                < 0.01)
        _orientations_exactly(image, rows, cols, 12)
        assert _orientation_at(ridge_statistics(image), rows[:0],
                               cols[:0]).shape == (0,)


class TestGateOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 40), st.integers(0, 2**32 - 1),
           st.sampled_from([1, 2, 3, 12, 13]))
    def test_maps_match_generic_filters(self, n_rows, n_cols, seed, block):
        rng = np.random.default_rng(seed)
        image = rng.random((n_rows, n_cols))
        mask = rng.random((n_rows, n_cols)) < 0.7
        assert np.array_equal(orientation_coherence(image, block),
                              reference.orientation_coherence(image, block))
        assert np.array_equal(local_contrast(image, block),
                              reference.local_contrast(image, block))
        assert np.array_equal(binarize(image, mask, block),
                              reference.binarize(image, mask, block))
        assert np.array_equal(binarize(image, block=block),
                              reference.binarize(image, None, block))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 12]),
           st.integers(0, 6))
    def test_whole_frame_extraction_matches_reference(self, seed, block,
                                                      border_margin):
        # Smoothed noise thresholds into blobby ridges with many
        # endings and bifurcations.
        rng = np.random.default_rng(seed)
        image = ndimage.gaussian_filter(rng.random((48, 48)), 1.2)
        mask = rng.random((48, 48)) < 0.95
        assert minutiae_from_image(image, mask, block, border_margin) \
            == reference.minutiae_from_image(image, mask, block, border_margin)


#: Contacts well inside the master, through both render branches (masked
#: without motion, full-frame blur with it), at the master's frame and a
#: controller-shaped one.
contact_conditions = st.builds(
    CaptureCondition,
    center=st.tuples(st.floats(50.0, 142.0), st.floats(50.0, 142.0)),
    radius=st.floats(20.0, 60.0),
    rotation_deg=st.floats(-30.0, 30.0),
    pressure=st.floats(0.1, 0.9),
    motion_px=st.sampled_from([0.0, 0.0, 0.6, 2.0, 3.5]),
    noise=st.sampled_from([0.0, 0.05, 0.2]),
    dropout=st.sampled_from([0.0, 0.05]),
)


class TestContactWindow:
    """The gate's contact window against the whole frame.

    Rendered impressions are 0.5 outside their mask, the precondition under
    which the window's statistics are the frame's; every window here lies
    strictly inside the frame, so none of its edges is a frame edge.
    """

    @settings(max_examples=25, deadline=None)
    @given(contact_conditions, st.sampled_from([None, (155, 160)]),
           st.integers(0, 2**32 - 1))
    def test_window_reads_what_the_whole_frame_gives(self, deployment,
                                                     condition, shape, seed):
        impression = render_impression(deployment.user_master, condition,
                                       np.random.default_rng(seed),
                                       output_shape=shape)
        image, mask = impression.image, impression.mask
        assume(mask.any())
        statistics = QualityGate().statistics(impression)
        rows, cols = statistics.window
        assume(rows.start > 0 and cols.start > 0 and rows.stop < mask.shape[0]
               and cols.stop < mask.shape[1])
        whole = ridge_statistics(image)
        for plane in ("gxy", "gxx", "gyy", "mean"):
            assert np.array_equal(getattr(statistics, plane),
                                  getattr(whole, plane)[statistics.window])
        assert dataclasses.astuple(
            assess_quality(impression, statistics=statistics)) \
            == dataclasses.astuple(assess_quality(impression)) \
            == reference.assess_quality(impression)
        got = minutiae_from_image(image, mask, statistics=statistics)
        assert got == minutiae_from_image(image, mask)
        assert got == reference.minutiae_from_image(image, mask)

    def test_statistics_of_another_frame_block_or_window_raise(self,
                                                               deployment):
        impression = render_impression(deployment.user_master,
                                       CaptureCondition(radius=40.0),
                                       np.random.default_rng(8))
        image, mask = impression.image, impression.mask
        statistics = QualityGate().statistics(impression)
        whole = ridge_statistics(image)
        with pytest.raises(ValueError, match="another frame"):
            assess_quality(impression, block=13, statistics=statistics)
        with pytest.raises(ValueError, match="another frame"):
            assess_quality(impression, statistics=whole)
        with pytest.raises(ValueError, match="another frame"):
            minutiae_from_image(image.copy(), mask, statistics=statistics)
        with pytest.raises(ValueError, match="another frame"):
            minutiae_from_image(image, mask, block=13, statistics=whole)
        assert minutiae_from_image(image, mask, statistics=whole) \
            == minutiae_from_image(image, mask)


class TestBorderAndCrossingOracle:
    @settings(max_examples=80, deadline=None)
    @given(arrays(bool, st.tuples(st.integers(0, 40), st.integers(0, 40))),
           st.integers(1, 6))
    def test_random_masks_erode_exactly(self, mask, margin):
        got = _border_interior(mask, margin)
        assert got.dtype == bool
        assert np.array_equal(got, reference.border_interior(mask, margin))

    @pytest.mark.parametrize("margin", [1, 3, 5, 8])
    def test_dense_masks_erode_exactly(self, margin):
        rng = np.random.default_rng(margin)
        mask = ndimage.binary_opening(rng.random((96, 90)) < 0.8)
        assert np.array_equal(_border_interior(mask, margin),
                              reference.border_interior(mask, margin))

    def test_zero_margin_keeps_the_mask_and_negative_raises(self):
        mask = np.random.default_rng(0).random((20, 24)) < 0.7
        assert np.array_equal(_border_interior(mask, 0), mask)
        with pytest.raises(ValueError):
            _border_interior(mask, -1)
        with pytest.raises(ValueError):
            reference.border_interior(mask, -1)

    @settings(max_examples=80, deadline=None)
    @given(arrays(bool, st.tuples(st.integers(0, 40), st.integers(0, 40))))
    def test_random_images_cross_exactly(self, skeleton):
        assert np.array_equal(_crossing_number(skeleton),
                              reference.crossing_number(skeleton))

    def test_every_neighbour_code_crosses_exactly(self):
        # All 256 neighbourhoods of a set centre pixel: one 3x3 tile per
        # code, P2..P9 from bit 0 up, with a blank column between tiles.
        ring = [(0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0), (0, 0)]
        frame = np.zeros((3, 4 * 256), dtype=bool)
        for code in range(256):
            frame[1, 4 * code + 1] = True
            for bit, (r, c) in enumerate(ring):
                frame[r, 4 * code + c] = bool(code >> bit & 1)
        got = _crossing_number(frame)
        assert np.array_equal(got, reference.crossing_number(frame))
        assert sorted(set(got[1, 1::4].tolist())) == [0, 1, 2, 3, 4]


class TestBorderMargin:
    """``border_margin=0`` excludes nothing; a negative margin raises.

    scipy's ``binary_erosion`` reads ``iterations < 1`` as "until nothing
    changes", which empties any finite mask: a margin passed to it as an
    iteration count drops every detection at 0.
    """

    @pytest.fixture(scope="class")
    def skeleton(self):
        return zhang_suen_thin(np.random.default_rng(5).random((60, 60))
                               < 0.45)

    def test_zero_margin_keeps_every_detection(self, skeleton):
        mask = np.ones(skeleton.shape, dtype=bool)
        orientation = np.zeros(skeleton.shape)
        at_zero = extract_minutiae(skeleton, mask, orientation,
                                   border_margin=0)
        at_one = extract_minutiae(skeleton, mask, orientation,
                                  border_margin=1)
        assert len(at_zero) >= len(at_one) > 0
        assert any(m.row == 0 or m.col == 0 or m.row == 59 or m.col == 59
                   for m in at_zero)

    def test_negative_margin_raises(self, skeleton):
        mask = np.ones(skeleton.shape, dtype=bool)
        with pytest.raises(ValueError):
            extract_minutiae(skeleton, mask, np.zeros(skeleton.shape),
                             border_margin=-1)


def _gabor_frame(seed, shape, field_kind):
    """A random image and an orientation field of ``field_kind``."""
    rng = np.random.default_rng(seed)
    image = rng.normal(0.0, 1.0, shape)
    if field_kind == "uniform":
        field = rng.uniform(0.0, np.pi, shape)
    elif field_kind == "wrapping":  # outside [0, pi): bins wrap around
        field = rng.uniform(-7.0, 7.0, shape)
    else:  # one bin, or a few
        angles = rng.uniform(0.0, np.pi, 1 if field_kind == "one" else 3)
        field = rng.choice(angles, shape)
    return image, field


field_kinds = st.sampled_from(["uniform", "wrapping", "one", "few"])
banks = st.builds(GaborBank, st.floats(2.5, 12.0), st.integers(4, 16))


class TestGaborOracle:
    """``GaborBank`` on ``scipy.fft`` against per-bin ``fftconvolve``.

    Frames with a 1-px side are where the two can part: ``fftconvolve``
    transforms only axes where neither side is 1, and a transform over a
    length-1 axis rounds differently.
    """

    @settings(max_examples=120, deadline=None)
    @given(banks, st.integers(1, 48), st.integers(1, 48), field_kinds,
           st.integers(0, 2**32 - 1))
    def test_random_frames_filter_exactly(self, bank, n_rows, n_cols,
                                          field_kind, seed):
        image, field = _gabor_frame(seed, (n_rows, n_cols), field_kind)
        assert np.array_equal(bank.filter(image, field),
                              reference.gabor_filter(bank, image, field))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 37), (48, 1),
                                       (2, 1), (2, 2), (0, 0), (0, 5),
                                       (7, 0)])
    @pytest.mark.parametrize("wavelength", [2.5, 8.5, 12.0])
    def test_edge_shapes_filter_exactly(self, shape, wavelength):
        bank = GaborBank(wavelength)
        for seed in range(8):
            image, field = _gabor_frame(seed, shape, "uniform")
            got = bank.filter(image, field)
            assert got.shape == shape
            assert np.array_equal(got,
                                  reference.gabor_filter(bank, image, field))

    @settings(max_examples=60, deadline=None)
    @given(banks, st.integers(1, 40), st.integers(1, 40), field_kinds,
           st.integers(1, 6), st.floats(0.5, 5.0), st.integers(0, 2**32 - 1))
    def test_random_seeds_synthesize_exactly(self, bank, n_rows, n_cols,
                                             field_kind, iterations, gain,
                                             seed):
        image, field = _gabor_frame(seed, (n_rows, n_cols), field_kind)
        assert np.array_equal(
            bank.synthesize(image, field, iterations, gain),
            reference.gabor_synthesize(bank, image, field, iterations, gain))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 48), st.integers(2, 48), st.booleans(),
           st.floats(2.5, 12.0), st.integers(4, 16), st.sampled_from([3, 12]),
           st.integers(0, 2**32 - 1))
    def test_random_frames_enhance_exactly(self, n_rows, n_cols, masked,
                                           wavelength, n_orientations, block,
                                           seed):
        rng = np.random.default_rng(seed)
        image = rng.random((n_rows, n_cols))
        mask = rng.random((n_rows, n_cols)) < 0.8 if masked else None
        kwargs = dict(mask=mask, wavelength=wavelength,
                      n_orientations=n_orientations, block=block)
        got, want = enhance(image, **kwargs), reference.enhance(image, **kwargs)
        assert np.array_equal(got.image, want.image)
        assert np.array_equal(got.orientation, want.orientation)
        assert np.array_equal(got.mask, want.mask)


def test_one_match_working_set_is_bounded():
    """A 33 x 360 match scores in batches: its peak allocation stays small."""
    rng = np.random.default_rng(360)
    template, probe = _random_set(rng, 33), _random_set(rng, 360)
    matcher = MinutiaeMatcher()
    matcher.match(template, probe)  # warm numpy's caches outside the window
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        matcher.match(template, probe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"match peaked at {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# Known answers: captures of ``standard_deployment(42)``'s fingers, recorded
# from the loop implementations.  Each entry is the probe's minutiae count,
# the SHA-256 of its minutiae reprs, and ``astuple`` of the match against
# the enrolled template.
# ---------------------------------------------------------------------------

#: name -> (finger, capture condition, rng seed, use enhancement)
CAPTURES = {
    "full-press": ("user", CaptureCondition(rotation_deg=10.0), 1, False),
    "partial-90px": ("user", CaptureCondition(center=(96.0, 96.0),
                                              radius=90.0,
                                              rotation_deg=10.0), 2, False),
    "light-noisy": ("user", CaptureCondition(rotation_deg=10.0, noise=0.2,
                                             pressure=0.15), 3, False),
    "light-noisy-enhanced": ("user", CaptureCondition(
        rotation_deg=10.0, noise=0.2, pressure=0.15), 3, True),
    "impostor": ("impostor", CaptureCondition(rotation_deg=10.0), 5, False),
}

KNOWN_ANSWERS = {
    'full-press': (30, '7ebad37ad7022885290e878486ba7c1fee5ff236357838a22b2f57188f97756b',
        (0.6313131313131313, 25, 33, 30, 6.130241476803569, (7.0, -6.0), (18.21301479403391, -12.34324914403345))),
    'impostor': (35, '9446d63b9a8b0a773b67906497d364d0a331c1a0e6b8f3d9f4b0f0591e5906ac',
        (0.007346938775510204, 3, 33, 35, 5.64122138421852, (22.0, 27.0), (119.77090859799503, 22.934077074262348))),
    'light-noisy': (377, '87b231d292a32c586744bdc765fff28e0c86d70c82ba15b2f2d47d4810ef35e9',
        (0.0025399461052987076, 19, 33, 377, 6.109201323958704, (-8.0, -16.0), (2.952084389621433, -19.579874851093706))),
    'light-noisy-enhanced': (26, 'a03e8de6922d59f83961bfa914f03ede836e40ca76052b1b1b531af6d089db44',
        (0.5641025641025641, 22, 33, 26, 6.096901448118515, (-9.0, 0.0), (24.343695299290133, -12.952192674934253))),
    'partial-90px': (22, '61d7c38135fa800a52549a4dbc5c6f9b18da0f9354d53fcda7c6f908f1cdac01',
        (0.5890909090909091, 18, 33, 22, 6.127760775827927, (-2.0, -7.0), (17.73567202305179, -10.446822690457566))),
}


@pytest.fixture(scope="module")
def deployment():
    return standard_deployment(42)


def _probe_digest(minutiae):
    text = "|".join(repr((m.row, m.col, m.direction, m.kind))
                    for m in minutiae)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CAPTURES))
def test_capture_known_answers(deployment, name):
    finger, condition, seed, enhanced = CAPTURES[name]
    master = (deployment.user_master if finger == "user"
              else deployment.impostor_master)
    impression = render_impression(master, condition,
                                   np.random.default_rng(seed))
    extract = minutiae_with_enhancement if enhanced else minutiae_from_image
    probe = extract(impression.image, impression.mask)
    result = MinutiaeMatcher().match(deployment.user_template.minutiae, probe)
    assert (len(probe), _probe_digest(probe), dataclasses.astuple(result)) \
        == KNOWN_ANSWERS[name]


# ---------------------------------------------------------------------------
# Render-branch known answers: the captures above all take the masked
# render (no motion blur, no distortion).  These three take the other
# branches — full-frame motion blur at a controller-shaped sensor frame,
# elastic distortion, and a blurred contact that overhangs the master's
# edge, so out-of-frame samples (0.5) blur into the contact.  Each entry
# is the SHA-256 of the image and mask bytes, ``astuple`` of the quality
# report, the probe's minutiae digest and ``astuple`` of the match.
# ---------------------------------------------------------------------------

#: name -> (capture condition, rng seed, sensor frame shape)
RENDER_CAPTURES = {
    "motion-controller-frame": (CaptureCondition(
        center=(96.0, 96.0), radius=70.0, rotation_deg=-12.0, pressure=0.6,
        motion_px=2.0, dropout=0.02), 21, (155, 160)),
    "distorted": (CaptureCondition(rotation_deg=5.0, distortion=3.0), 22,
                  None),
    "motion-overhang": (CaptureCondition(
        center=(24.0, 176.0), radius=80.0, rotation_deg=20.0,
        motion_px=3.0), 23, (155, 160)),
}

RENDER_KNOWN_ANSWERS = {
    'distorted': ('23c82091e0cb31ca64431716fb366f14fc7e7aad9dbbd81b573f403430afe587',
        (0.9587673611111112, 0.9364606841685919, 1.0, 1.0, 0.9734209692789733),
        '1ee37ed865949bd3f1f3725504bb60cf4fb4f2fe7f8639fd8d059503dd8a9aa3',
        (0.7063740856844305, 26, 33, 29, 6.229202487369745, (2.0, -1.0), (7.87392829989361, -2.5692857397587403))),
    'motion-controller-frame': ('3ceaba84ec248b7bec75d576c5234e9883d5761dd93bdf852818b3d16f99742d',
        (0.6204838709677419, 0.8732811574961004, 1.0, 1.0, 0.8579681116692977),
        'dc0efa947dc342f3ea9fe4334eb2eafb6767fc9e3ef60056bf7ab9d6959b1299',
        (0.3712121212121212, 7, 33, 11, 0.3299378896768337, (19.0, 19.0), (-0.7677084027139074, 48.262150323446456))),
    'motion-overhang': ('3f87abd5cf5da501611377e0989273fac5169768461461d5420810a6c6186166',
        (0.34096774193548385, 0.4310840698713315, 0.3575654621334308, 1.0, 0.47880393140088146),
        'ab77e5eee1a478e4e843136a65fe90a591b88acd65e86d0d2f17dac311806205',
        (0.006186087615200101, 7, 33, 89, 5.861113386391757, (-30.0, 14.0), (-13.088428259112312, -2.942774516896989))),
}


@pytest.mark.parametrize("name", sorted(RENDER_CAPTURES))
def test_render_branch_known_answers(deployment, name):
    condition, seed, shape = RENDER_CAPTURES[name]
    impression = render_impression(deployment.user_master, condition,
                                   np.random.default_rng(seed),
                                   output_shape=shape)
    pixels = hashlib.sha256(impression.image.tobytes()
                            + impression.mask.tobytes()).hexdigest()
    probe = minutiae_from_image(impression.image, impression.mask)
    result = MinutiaeMatcher().match(deployment.user_template.minutiae, probe)
    assert (pixels, dataclasses.astuple(assess_quality(impression)),
            _probe_digest(probe), dataclasses.astuple(result)) \
        == RENDER_KNOWN_ANSWERS[name]


# ---------------------------------------------------------------------------
# Processor known answers: ``ImageFingerprintProcessor.authenticate`` on
# sensor-window captures of ``standard_deployment(42)``'s fingers, each a
# light touch on the login button whose quality-gate crop lies strictly
# inside the frame, so the gate, the first-pass extraction on that crop,
# the enhancement retry and the match all run as on a device.  Each entry
# is ``astuple`` of the ``AuthDecision`` and the processor's enhancement
# passes; recorded before extraction shared the gate's statistics.
# ---------------------------------------------------------------------------

#: name -> (finger, touch pressure, touch speed mm/s, rng seed)
PROCESSOR_CAPTURES = {
    "user-first-pass": ("user", 0.2, 0.0, 0),
    "user-motion": ("user", 0.25, 25.0, 47),
    "user-motion-rejected": ("user", 0.25, 25.0, 59),
    "user-enhanced": ("user", 0.25, 0.0, 5),
    "impostor": ("impostor", 0.2, 0.0, 0),
}

PROCESSOR_KNOWN_ANSWERS = {
    'user-first-pass': ((True, (0.43209677419354836, 0.7643771918372032, 1.0, 1.0, 0.7580924753519533), 0.2, True, 0.00462), 0),
    'user-motion': ((True, (0.4867741935483871, 0.8017951944759611, 1.0, 1.0, 0.7904014871937308), 0.4049586776859504, True, 0.00462), 0),
    'user-motion-rejected': ((True, (0.4867741935483871, 0.6599852520560326, 0.5531875903380628, 1.0, 0.6492822815972914), 0.06805293005671077, False, 0.00924), 1),
    'user-enhanced': ((True, (0.4867741935483871, 0.8015545753178951, 1.0, 1.0, 0.7903421805439449), 0.6153846153846154, True, 0.00924), 1),
    'impostor': ((True, (0.43209677419354836, 0.7590927305467255, 1.0, 1.0, 0.756778811613311), 0.017777777777777778, False, 0.00924), 1),
}


def _processor_capture(deployment, name):
    finger, pressure, speed, seed = PROCESSOR_CAPTURES[name]
    master = (deployment.user_master if finger == "user"
              else deployment.impostor_master)
    touch = TouchPanel().locate(TouchEvent(
        time_s=0.0, x_mm=LOGIN_BUTTON_XY[0], y_mm=LOGIN_BUTTON_XY[1],
        pressure=pressure, speed_mm_s=speed, finger_id=master.finger_id))
    return deployment.device.flock.controller.capture(
        touch, master, np.random.default_rng(seed))


@pytest.mark.parametrize("name", sorted(PROCESSOR_CAPTURES))
def test_processor_known_answers(deployment, name):
    capture = _processor_capture(deployment, name)
    mask = capture.impression.mask
    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    pad = 12 // 2 + 2  # the gate's crop margin at its default block
    assert 0 < rows[0] - pad and rows[-1] + 1 + pad < mask.shape[0]
    assert 0 < cols[0] - pad and cols[-1] + 1 + pad < mask.shape[1]
    processor = ImageFingerprintProcessor(deployment.user_template)
    decision = processor.authenticate(capture, np.random.default_rng(0))
    assert (dataclasses.astuple(decision), processor.enhancement_passes) \
        == PROCESSOR_KNOWN_ANSWERS[name]


# ---------------------------------------------------------------------------
# Gabor known answers, recorded from per-bin ``fftconvolve``: the SHA-256 of
# the image bytes of three synthesized masters (``standard_deployment(42)``'s
# two fingers and the fleet's finger at ``FleetConfig(seed=7)``) and of the
# "light-noisy" capture's enhancement.
# ---------------------------------------------------------------------------

GABOR_KNOWN_ANSWERS = {
    "user-master": "25a18b75b3b6e580e6d793766295fd93159539b11a12cefcd76fd2393d571d0b",
    "impostor-master": "60ce2fd4e9281799037b3182aba4efc26594c753ce0a9396744f5bf5b172d641",
    "fleet-master": "417e23b4f2d798bbd6c9b3e6a886ee78c4651ebd3f14e34346183d590d3353d5",
    "light-noisy-enhanced": "144adb5050a98db27ec8f9dd1d89473798347203fbfd60f580c196bcd5ae8d63",
}


def test_gabor_known_answers(deployment):
    # The finger ``DeviceFactory`` synthesizes for ``FleetConfig(seed=7)``.
    fleet = synthesize_master("fleet-right-thumb",
                              np.random.default_rng((7, 1)))
    condition, seed = CAPTURES["light-noisy"][1:3]
    capture = render_impression(deployment.user_master, condition,
                                np.random.default_rng(seed))
    images = {
        "user-master": deployment.user_master.image,
        "impostor-master": deployment.impostor_master.image,
        "fleet-master": fleet.image,
        "light-noisy-enhanced": enhance(capture.image, capture.mask).image,
    }
    assert {name: hashlib.sha256(image.tobytes()).hexdigest()
            for name, image in images.items()} == GABOR_KNOWN_ANSWERS
