"""Fingerprint processor: quality gate + template matching (Fig. 5/6).

Two interchangeable implementations share the :class:`AuthDecision`
interface:

- :class:`ImageFingerprintProcessor` runs the full image pipeline on every
  capture (extraction + minutiae matching against the stored template) —
  the honest path, used by the matcher benchmarks and the examples.
- :class:`ModeledFingerprintProcessor` draws match scores from a calibrated
  score model — the fast path for experiments simulating tens of thousands
  of touches (E1/E6/E10), where only score *distributions* matter.  The
  substitution is documented in DESIGN.md.

Both account a modeled processing latency so end-to-end response numbers
include matching, not just sensor scan-out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import sha256
from repro.fingerprint import (
    CalibratedScoreModel,
    FingerprintTemplate,
    MinutiaeMatcher,
    QualityGate,
    QualityReport,
    assess_quality,
    minutiae_from_image,
)
from repro.fingerprint.enhancement import minutiae_with_enhancement
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


def _minutiae_digest(minutiae) -> bytes:
    """Canonical SHA-256 digest of a minutiae set (match-cache key).

    Position/direction floats are serialized via ``repr`` (exact), so two
    digests are equal iff the two sets would match identically.
    """
    parts = [f"{m.row!r},{m.col!r},{m.direction!r},{m.kind}"
             for m in minutiae]
    return sha256("|".join(parts).encode("utf-8"))


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

    @property
    def contributed(self) -> bool:
        """Did this capture reach the matcher (i.e. count toward risk)?"""
        return self.quality_ok


class ImageFingerprintProcessor:
    """Full-pipeline processor matching against the enrolled template set.

    A user enrolls at least one finger; additional fingers (the other
    thumb, an index finger for two-handed use) can be added and a capture
    authenticates if it matches *any* enrolled template — the natural
    multi-finger extension of the paper's design.
    """

    def __init__(self, template: FingerprintTemplate,
                 accept_threshold: float = 0.10,
                 quality_threshold: float = 0.45,
                 matcher: MinutiaeMatcher | None = None,
                 use_enhancement: bool = True,
                 enhanced_threshold: float = 0.16) -> None:
        if not 0.0 <= accept_threshold <= 1.0:
            raise ValueError("accept threshold must be in [0, 1]")
        if enhanced_threshold < accept_threshold:
            raise ValueError(
                "the enhanced-pass threshold must be at least the raw "
                "threshold (enhancement slightly inflates impostor scores)")
        self.templates = [template]
        self.accept_threshold = float(accept_threshold)
        self.gate = QualityGate(threshold=quality_threshold)
        self.matcher = matcher if matcher is not None else MinutiaeMatcher()
        self.use_enhancement = bool(use_enhancement)
        self.enhanced_threshold = float(enhanced_threshold)
        self.enhancement_passes = 0
        #: Optional duck-typed memoizer (``memoize(kind, key, compute)``)
        #: for template-match scores, keyed on (template, probe) minutiae
        #: digests.  Matching is a pure function of the two minutiae sets,
        #: so a cached score is exactly the recomputed score.
        self.match_cache = None
        #: Instrumentation bundle (re-wired by ``FlockModule.obs``).
        self.obs = NOOP

    @property
    def template(self) -> FingerprintTemplate:
        """The primary (first-enrolled) template."""
        return self.templates[0]

    def add_template(self, template: FingerprintTemplate) -> None:
        """Enroll an additional finger."""
        if template.finger_id in [t.finger_id for t in self.templates]:
            raise ValueError(
                f"finger {template.finger_id!r} is already enrolled")
        self.templates.append(template)

    def _match_score(self, template: FingerprintTemplate,
                     minutiae, probe_digest: bytes | None) -> float:
        """Score one probe against one template, via the cache if set."""
        if self.match_cache is None or probe_digest is None:
            return self.matcher.match(template.minutiae, minutiae).score
        return self.match_cache.memoize(
            "template-match",
            _minutiae_digest(template.minutiae) + probe_digest,
            lambda: self.matcher.match(template.minutiae, minutiae).score)

    def _best_score(self, minutiae) -> float:
        """Best score of one probe across every enrolled template."""
        probe_digest = (_minutiae_digest(minutiae)
                        if self.match_cache is not None else None)
        return max(self._match_score(template, minutiae, probe_digest)
                   for template in self.templates)

    def authenticate(self, capture: TouchCapture,
                     rng: SimulationRng) -> AuthDecision:
        """Gate on quality, then extract and match against every template.
        ``rng`` unused here (signature shared with the modeled processor)."""
        with self.obs.tracer.span("flock.match", processor="image") as span:
            decision = self._authenticate(capture, rng)
            _annotate_decision(span, decision)
        return decision

    def _authenticate(self, capture: TouchCapture,
                      rng: SimulationRng) -> AuthDecision:
        quality_ok, report = self.gate.evaluate(capture.impression)
        extraction_time = capture.hardware.cells_sensed / EXTRACTION_CELLS_PER_S
        if not quality_ok:
            return AuthDecision(False, report, 0.0, False, extraction_time)
        minutiae = minutiae_from_image(capture.impression.image,
                                       capture.impression.mask)
        if len(minutiae) < 4:
            # Too few features to attempt a match: treated as a quality
            # rejection (Fig. 6 "incomplete data"), not an impostor signal.
            return AuthDecision(False, report, 0.0, False, extraction_time)
        best_score = self._best_score(minutiae)
        total_time = extraction_time + MATCH_TIME_S * len(self.templates)
        accepted = best_score >= self.accept_threshold

        if not accepted and self.use_enhancement:
            # Second chance: contextual Gabor enhancement recovers ridge
            # structure on marginal captures (light pressure, noise).  The
            # enhanced pass uses a stricter threshold — enhancement also
            # hallucinates some structure for impostors.
            enhanced = minutiae_with_enhancement(capture.impression.image,
                                                 capture.impression.mask)
            if len(enhanced) >= 4:
                self.enhancement_passes += 1
                enhanced_score = self._best_score(enhanced)
                total_time += (extraction_time
                               + MATCH_TIME_S * len(self.templates))
                if enhanced_score >= self.enhanced_threshold:
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
    Quality gating is driven by the capture's measured quality, matching
    the image processor's gate semantics.
    """

    def __init__(self, enrolled_finger_id: str,
                 score_model: CalibratedScoreModel,
                 accept_threshold: float = 0.25,
                 quality_threshold: float = 0.45) -> None:
        self.enrolled_finger_id = enrolled_finger_id
        self.score_model = score_model
        self.accept_threshold = float(accept_threshold)
        self.quality_threshold = float(quality_threshold)
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
        report = assess_quality(capture.impression)
        extraction_time = capture.hardware.cells_sensed / EXTRACTION_CELLS_PER_S
        if report.score < self.quality_threshold:
            return AuthDecision(False, report, 0.0, False, extraction_time)
        genuine = capture.touch.event.finger_id == self.enrolled_finger_id
        score = self.score_model.sample(genuine, rng)
        return AuthDecision(
            quality_ok=True, quality=report, score=score,
            accepted=score >= self.accept_threshold,
            processing_time_s=extraction_time + MATCH_TIME_S,
        )
