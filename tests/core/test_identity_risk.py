"""IdentityRiskTracker: window semantics, risk values, breach policy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import IdentityRiskTracker, TouchOutcomeKind

V = TouchOutcomeKind.VERIFIED
F = TouchOutcomeKind.MATCH_FAILED
Q = TouchOutcomeKind.LOW_QUALITY
N = TouchOutcomeKind.NOT_COVERED


class TestRiskValues:
    def test_empty_window_zero_risk(self):
        tracker = IdentityRiskTracker(window=8)
        assessment = tracker.assess()
        assert assessment.risk == 0.0
        assert not assessment.breach

    def test_all_verified_zero_risk(self):
        tracker = IdentityRiskTracker(window=4, min_verified=2)
        for _ in range(4):
            assessment = tracker.record(V)
        assert assessment.risk == 0.0
        assert assessment.window_fill == assessment.window_size
        assert not assessment.breach

    def test_risk_ramps_by_one_over_n(self):
        tracker = IdentityRiskTracker(window=8)
        assessment = tracker.record(F)
        assert assessment.risk == pytest.approx(1 / 8)
        assessment = tracker.record(F)
        assert assessment.risk == pytest.approx(2 / 8)

    def test_paper_definition_x_out_of_n(self):
        """Risk = 1 - x/n with x verified in a full window of n."""
        tracker = IdentityRiskTracker(window=5, min_verified=1)
        for kind in (V, F, V, F, F):
            assessment = tracker.record(kind)
        assert assessment.risk == pytest.approx(1.0 - 2 / 5)
        assert assessment.verified_in_window == 2

    def test_window_slides(self):
        tracker = IdentityRiskTracker(window=3, min_verified=1)
        for kind in (V, V, V, F, F, F):
            assessment = tracker.record(kind)
        assert assessment.verified_in_window == 0
        assert assessment.risk == 1.0
        assert assessment.breach


class TestBreachPolicy:
    def test_breach_requires_full_window(self):
        tracker = IdentityRiskTracker(window=4, min_verified=2)
        for _ in range(3):
            assessment = tracker.record(F)
        assert not assessment.breach  # only 3 of 4 slots filled
        assessment = tracker.record(F)
        assert assessment.breach

    def test_k_of_n_boundary(self):
        tracker = IdentityRiskTracker(window=4, min_verified=2)
        for kind in (V, V, F, F):
            assessment = tracker.record(kind)
        assert not assessment.breach  # exactly k verified
        assessment = tracker.record(F)  # evicts a V
        assert assessment.breach

    def test_reset_clears_window(self):
        tracker = IdentityRiskTracker(window=3, min_verified=1)
        for _ in range(3):
            tracker.record(F)
        assert tracker.assess().breach
        tracker.reset()
        assert tracker.assess().risk == 0.0
        assert not tracker.assess().breach


class TestCountingPolicy:
    def test_low_quality_counts_by_default(self):
        """Deliberate low-quality evasion raises risk (countermeasure 3)."""
        tracker = IdentityRiskTracker(window=4, min_verified=1)
        for _ in range(4):
            assessment = tracker.record(Q)
        assert assessment.breach
        assert assessment.risk == 1.0

    def test_low_quality_can_be_excluded(self):
        tracker = IdentityRiskTracker(window=4, min_verified=1,
                                      count_low_quality=False)
        for _ in range(10):
            assessment = tracker.record(Q)
        assert assessment.window_fill == 0
        assert not assessment.breach

    def test_not_covered_excluded_by_default(self):
        tracker = IdentityRiskTracker(window=4, min_verified=1)
        for _ in range(10):
            assessment = tracker.record(N)
        assert assessment.window_fill == 0
        assert assessment.risk == 0.0

    def test_not_covered_can_be_counted(self):
        tracker = IdentityRiskTracker(window=4, min_verified=1,
                                      count_not_covered=True)
        for _ in range(4):
            assessment = tracker.record(N)
        assert assessment.breach


class TestValidationAndStats:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            IdentityRiskTracker(window=0)
        with pytest.raises(ValueError):
            IdentityRiskTracker(window=4, min_verified=5)

    @given(st.lists(st.sampled_from([V, F, Q, N]), max_size=60),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_risk_always_in_unit_range(self, kinds, window):
        tracker = IdentityRiskTracker(window=window,
                                      min_verified=min(2, window))
        for kind in kinds:
            assessment = tracker.record(kind)
            assert 0.0 <= assessment.risk <= 1.0
            assert assessment.window_fill <= window

    @given(st.lists(st.sampled_from([V, F]), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_breach_iff_verified_below_k_in_full_window(self, kinds):
        window, k = 6, 2
        tracker = IdentityRiskTracker(window=window, min_verified=k)
        for kind in kinds:
            assessment = tracker.record(kind)
        expected_window = kinds[-window:]
        expected_verified = sum(1 for kind in expected_window if kind is V)
        if len(expected_window) == window:
            assert assessment.breach == (expected_verified < k)
        else:
            assert not assessment.breach
