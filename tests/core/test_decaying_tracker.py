"""DecayingRiskTracker: the exponential-forgetting risk memory."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DecayingRiskTracker, TouchOutcomeKind

V = TouchOutcomeKind.VERIFIED
F = TouchOutcomeKind.MATCH_FAILED
Q = TouchOutcomeKind.LOW_QUALITY
N = TouchOutcomeKind.NOT_COVERED


class TestDecay:
    def test_fresh_tracker_zero_risk(self):
        tracker = DecayingRiskTracker()
        assessment = tracker.assess()
        assert assessment.risk == 0.0
        assert not assessment.breach

    def test_all_verified_stays_low(self):
        tracker = DecayingRiskTracker()
        for _ in range(20):
            assessment = tracker.record(V)
        assert assessment.risk == 0.0
        assert not assessment.breach

    def test_all_failed_breaches(self):
        tracker = DecayingRiskTracker(half_life_touches=4.0)
        breached = False
        for _ in range(20):
            if tracker.record(F).breach:
                breached = True
                break
        assert breached

    def test_risk_ramps_gradually(self):
        tracker = DecayingRiskTracker()
        first = tracker.record(F).risk
        assert first < 0.3  # warm-up attenuates early failures
        later = first
        for _ in range(10):
            later = tracker.record(F).risk
        assert later > first

    def test_old_evidence_fades(self):
        """After a takeover, verified history decays away smoothly."""
        tracker = DecayingRiskTracker(half_life_touches=4.0)
        for _ in range(20):
            tracker.record(V)
        risks = [tracker.record(F).risk for _ in range(12)]
        assert risks == sorted(risks)  # monotone rise
        assert risks[-1] > 0.75

    def test_counting_policies(self):
        counted = DecayingRiskTracker()
        for _ in range(15):
            assessment_counted = counted.record(Q)
        ignored = DecayingRiskTracker(count_low_quality=False)
        for _ in range(15):
            assessment_ignored = ignored.record(Q)
        assert assessment_counted.risk > 0.8
        assert assessment_ignored.risk == 0.0
        uncovered = DecayingRiskTracker()
        for _ in range(15):
            assessment_uncovered = uncovered.record(N)
        assert assessment_uncovered.risk == 0.0  # ignored by default

    def test_validation(self):
        with pytest.raises(ValueError):
            DecayingRiskTracker(half_life_touches=0)
        with pytest.raises(ValueError):
            DecayingRiskTracker(breach_risk=0.0)

    @given(st.lists(st.sampled_from([V, F, Q, N]), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_risk_always_in_unit_range(self, kinds):
        tracker = DecayingRiskTracker()
        for kind in kinds:
            assessment = tracker.record(kind)
            assert 0.0 <= assessment.risk <= 1.0

    @given(st.integers(min_value=2, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_steady_failure_converges_to_one(self, half_life):
        tracker = DecayingRiskTracker(half_life_touches=float(half_life))
        for _ in range(half_life * 12):
            risk = tracker.record(F).risk
        assert risk > 0.95
