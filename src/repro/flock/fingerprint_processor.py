"""Fingerprint processor: quality gate + template matching (Fig. 5/6).

FLock has one fingerprint processor: gate the capture on quality, match it
against the enrolled template, accept or reject.  It runs at one of two
fidelities, picked by ``FlockModule.enroll_local_user`` from the module's
``processor_mode``; both share the :class:`AuthDecision` interface, the
quality gate, and thresholds fixed below:

- :class:`ImageFingerprintProcessor` runs the full image pipeline on every
  capture (extraction + minutiae matching against the stored template) —
  the honest path, used by the matcher benchmarks and the examples.
- :class:`ModeledFingerprintProcessor` draws match scores from the
  calibrated partial-touch score model — the fast path for fleets and for
  experiments simulating tens of thousands of touches (E1/E6/E10), where
  only score *distributions* matter.  The substitution is documented in
  DESIGN.md.

Both account a modeled processing latency so end-to-end response numbers
include matching, not just sensor scan-out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fingerprint import (
    DEFAULT_PARTIAL_MODEL,
    FingerprintTemplate,
    MinutiaeMatcher,
    QualityGate,
    QualityReport,
    minutiae_from_image,
)
from repro.fingerprint.enhancement import minutiae_with_enhancement
from repro.fingerprint.matching import PreparedMinutiae
from repro.obs import NOOP

from .fingerprint_controller import TouchCapture
from .rng import SimulationRng

__all__ = [
    "AuthDecision",
    "ImageFingerprintProcessor",
    "ModeledFingerprintProcessor",
]

#: Modeled minutiae-extraction throughput: cells processed per second by the
#: embedded fingerprint processor (enhancement + thinning dominate).
EXTRACTION_CELLS_PER_S = 40_000_000

#: Modeled per-comparison matching time (alignment hypotheses on an
#: embedded core).
MATCH_TIME_S = 0.004

#: Minimum capture quality score; lower-quality captures are discarded
#: before matching (Fig. 6 "incomplete data").
QUALITY_THRESHOLD = 0.45

#: Image processor: minimum minutiae-match score on the raw capture.
IMAGE_ACCEPT_THRESHOLD = 0.10

#: Image processor: minimum score after contextual Gabor enhancement,
#: stricter than the raw pass because enhancement also hallucinates some
#: structure for impostors.
ENHANCED_ACCEPT_THRESHOLD = 0.16

#: Modeled processor: minimum score drawn from the partial-touch model.
MODELED_ACCEPT_THRESHOLD = 0.25

#: The minutiae matcher (stateless per call, so one serves every device).
_MATCHER = MinutiaeMatcher()


def _annotate_decision(span, decision: "AuthDecision") -> None:
    """Stamp a match span with the decision's observable outcome."""
    span.set_attribute("quality_ok", decision.quality_ok)
    span.set_attribute("score", decision.score)
    span.set_attribute("accepted", decision.accepted)
    span.set_attribute("processing_time_s", decision.processing_time_s)


@dataclass(frozen=True)
class AuthDecision:
    """Outcome of authenticating one capture."""

    quality_ok: bool
    quality: QualityReport | None
    score: float
    accepted: bool
    processing_time_s: float


class ImageFingerprintProcessor:
    """Full-pipeline processor matching against the enrolled template."""

    def __init__(self, template: FingerprintTemplate) -> None:
        #: The enrolled template's minutiae, prepared for matching once.
        self._prepared: PreparedMinutiae = _MATCHER.prepare(template.minutiae)
        self.gate = QualityGate(threshold=QUALITY_THRESHOLD)
        self.enhancement_passes = 0
        #: Instrumentation bundle (re-wired by ``FlockModule.obs``).
        self.obs = NOOP

    def authenticate(self, capture: TouchCapture,
                     rng: SimulationRng) -> AuthDecision:
        """Gate on quality, then extract and match against the template.
        ``rng`` unused here (signature shared with the modeled processor)."""
        with self.obs.tracer.span("flock.match", processor="image") as span:
            decision = self._authenticate(capture, rng)
            _annotate_decision(span, decision)
        return decision

    def _authenticate(self, capture: TouchCapture,
                      rng: SimulationRng) -> AuthDecision:
        impression = capture.impression
        # The gate's ridge statistics of the contact window serve the
        # first-pass extraction too; they live for this call only.
        statistics = self.gate.statistics(impression)
        quality_ok, report = self.gate.evaluate(impression, statistics)
        extraction_time = capture.hardware.cells_sensed / EXTRACTION_CELLS_PER_S
        if not quality_ok:
            return AuthDecision(False, report, 0.0, False, extraction_time)
        minutiae = minutiae_from_image(impression.image, impression.mask,
                                       statistics=statistics)
        if len(minutiae) < 4:
            # Too few features to attempt a match: treated as a quality
            # rejection (Fig. 6 "incomplete data"), not an impostor signal.
            return AuthDecision(False, report, 0.0, False, extraction_time)
        best_score = _MATCHER.match(self._prepared, minutiae).score
        total_time = extraction_time + MATCH_TIME_S
        accepted = best_score >= IMAGE_ACCEPT_THRESHOLD

        if not accepted:
            # Second chance: contextual Gabor enhancement recovers ridge
            # structure on marginal captures (light pressure, noise), under
            # the stricter enhanced-pass threshold.
            enhanced = minutiae_with_enhancement(impression.image,
                                                 impression.mask)
            if len(enhanced) >= 4:
                self.enhancement_passes += 1
                enhanced_score = _MATCHER.match(self._prepared,
                                                enhanced).score
                total_time += extraction_time + MATCH_TIME_S
                if enhanced_score >= ENHANCED_ACCEPT_THRESHOLD:
                    best_score = enhanced_score
                    accepted = True

        return AuthDecision(
            quality_ok=True, quality=report, score=best_score,
            accepted=accepted,
            processing_time_s=total_time,
        )


class ModeledFingerprintProcessor:
    """Statistical processor: scores drawn from a calibrated model.

    ``genuine`` is decided by comparing the touching finger's id with the
    enrolled finger id — the physical ground truth the simulation knows.
    Captures pass the same quality gate as in the image processor; scores
    come from :data:`~repro.fingerprint.DEFAULT_PARTIAL_MODEL`.
    """

    def __init__(self, enrolled_finger_id: str) -> None:
        self.enrolled_finger_id = enrolled_finger_id
        self.gate = QualityGate(threshold=QUALITY_THRESHOLD)
        #: Instrumentation bundle (re-wired by ``FlockModule.obs``).
        self.obs = NOOP

    def authenticate(self, capture: TouchCapture,
                     rng: SimulationRng) -> AuthDecision:
        """Quality-gate and score one capture against the model."""
        with self.obs.tracer.span("flock.match", processor="modeled") as span:
            decision = self._authenticate(capture, rng)
            _annotate_decision(span, decision)
        return decision

    def _authenticate(self, capture: TouchCapture,
                      rng: SimulationRng) -> AuthDecision:
        quality_ok, report = self.gate.evaluate(capture.impression)
        extraction_time = capture.hardware.cells_sensed / EXTRACTION_CELLS_PER_S
        if not quality_ok:
            return AuthDecision(False, report, 0.0, False, extraction_time)
        genuine = capture.touch.event.finger_id == self.enrolled_finger_id
        score = DEFAULT_PARTIAL_MODEL.sample(genuine, rng)
        return AuthDecision(
            quality_ok=True, quality=report, score=score,
            accepted=score >= MODELED_ACCEPT_THRESHOLD,
            processing_time_s=extraction_time + MATCH_TIME_S,
        )
