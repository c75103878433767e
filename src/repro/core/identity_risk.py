"""Identity risk: the paper's quantitative fraud measure (section IV-A).

    "Our solution uses identity risk to quantitatively measure the
    likelihood of identity fraud.  Identity risk can be defined as the
    number of times that fingerprints can be captured and verified out of
    certain number of touches from a user."

The tracker keeps a sliding window of the last ``n`` countable touch
outcomes; with ``x`` of them verified, the reported risk is ``1 - x/n``.
The *window policy* ("at least k out of n consecutive touch inputs need to
produce at least one valid fingerprint") triggers a breach when a full
window holds fewer than ``k`` verified touches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

__all__ = ["TouchOutcomeKind", "RiskAssessment", "IdentityRiskTracker",
           "DecayingRiskTracker"]


class TouchOutcomeKind(Enum):
    """How one touch fared in the Fig. 6 pipeline."""

    VERIFIED = "verified"  # captured, quality ok, matched
    MATCH_FAILED = "match-failed"  # captured, quality ok, did NOT match
    LOW_QUALITY = "low-quality"  # captured, quality gate rejected
    NOT_COVERED = "not-covered"  # touch outside any sensor


@dataclass(frozen=True)
class RiskAssessment:
    """The tracker's verdict after one recorded touch."""

    risk: float  # 1 - verified/window, in [0, 1]
    verified_in_window: int
    window_fill: int
    window_size: int
    breach: bool  # k-of-n policy violated


class IdentityRiskTracker:
    """Sliding k-of-n window over touch outcomes.

    Parameters
    ----------
    window:
        n — how many recent countable touches the window holds.
    min_verified:
        k — a full window with fewer verified touches is a breach.
    count_low_quality:
        Whether quality-rejected captures occupy window slots.  The paper's
        first challenge is an impostor *deliberately* feeding low-quality
        data so it is discarded; counting those touches (the default) makes
        that evasion strategy raise risk instead of hiding it.
    count_not_covered:
        Whether touches landing outside every sensor occupy window slots.
        Off by default: with partial sensor coverage, uncovered touches say
        nothing about who is touching.
    """

    def __init__(self, window: int = 8, min_verified: int = 2,
                 count_low_quality: bool = True,
                 count_not_covered: bool = False) -> None:
        if window < 1:
            raise ValueError("window must hold at least one touch")
        if not 0 <= min_verified <= window:
            raise ValueError("min_verified must be in [0, window]")
        self.window = int(window)
        self.min_verified = int(min_verified)
        self.count_low_quality = bool(count_low_quality)
        self.count_not_covered = bool(count_not_covered)
        self._outcomes: deque[TouchOutcomeKind] = deque(maxlen=self.window)

    def _countable(self, kind: TouchOutcomeKind) -> bool:
        if kind is TouchOutcomeKind.LOW_QUALITY:
            return self.count_low_quality
        if kind is TouchOutcomeKind.NOT_COVERED:
            return self.count_not_covered
        return True

    def record(self, kind: TouchOutcomeKind) -> RiskAssessment:
        """Record one touch outcome and return the updated assessment."""
        if self._countable(kind):
            self._outcomes.append(kind)
        return self.assess()

    def assess(self) -> RiskAssessment:
        """The current window's risk without recording anything.

        Risk is the *unverified fraction of the full window*,
        ``(fill - verified) / n``: unfilled slots count as absence of
        evidence, not as failures, so a single early failed capture ramps
        risk by 1/n instead of spiking it to 1.0.
        """
        fill = len(self._outcomes)
        verified = sum(1 for o in self._outcomes
                       if o is TouchOutcomeKind.VERIFIED)
        risk = (fill - verified) / self.window
        breach = fill == self.window and verified < self.min_verified
        return RiskAssessment(
            risk=risk, verified_in_window=verified,
            window_fill=fill, window_size=self.window, breach=breach,
        )

    def reset(self) -> None:
        """Clear the window (e.g. after a successful re-authentication)."""
        self._outcomes.clear()


class DecayingRiskTracker:
    """Exponential-forgetting alternative to the sliding k-of-n window.

    Instead of a hard window, evidence decays geometrically: each new
    countable touch multiplies the accumulated (verified, total) evidence
    masses by ``0.5 ** (1 / half_life_touches)`` before adding itself.
    Risk is the unverified fraction of the decayed evidence, attenuated by
    a warm-up factor until enough evidence has accumulated; a breach is a
    warm tracker whose risk exceeds ``breach_risk``.  Touches outside every
    sensor are not counted, as in the window's default.

    Compared in ablation A7 against the paper's window: the decay reacts a
    touch or two faster after a takeover (old genuine evidence fades
    smoothly instead of waiting to slide out) at equal false-lock rates.
    """

    def __init__(self, half_life_touches: float = 4.0,
                 breach_risk: float = 0.75,
                 count_low_quality: bool = True) -> None:
        if half_life_touches <= 0:
            raise ValueError("half life must be positive")
        if not 0.0 < breach_risk <= 1.0:
            raise ValueError("breach risk must be in (0, 1]")
        self.decay = 0.5 ** (1.0 / half_life_touches)
        self.breach_risk = float(breach_risk)
        self.count_low_quality = bool(count_low_quality)
        #: Asymptotic evidence mass of a steady stream.
        self.saturation_mass = 1.0 / (1.0 - self.decay)
        self._verified_mass = 0.0
        self._total_mass = 0.0

    def _countable(self, kind: TouchOutcomeKind) -> bool:
        if kind is TouchOutcomeKind.LOW_QUALITY:
            return self.count_low_quality
        return kind is not TouchOutcomeKind.NOT_COVERED

    def record(self, kind: TouchOutcomeKind) -> RiskAssessment:
        """Record one touch outcome and return the updated assessment."""
        if self._countable(kind):
            self._verified_mass *= self.decay
            self._total_mass *= self.decay
            self._total_mass += 1.0
            if kind is TouchOutcomeKind.VERIFIED:
                self._verified_mass += 1.0
        return self.assess()

    def assess(self) -> RiskAssessment:
        """Current decayed-evidence risk, in the window-tracker's shape.

        ``verified_in_window``/``window_fill`` report rounded evidence
        masses; ``window_size`` reports the saturation mass, so the
        RiskAssessment fields keep their "x of n" reading.
        """
        warmup = min(self._total_mass / self.saturation_mass, 1.0)
        if self._total_mass > 1e-12:
            unverified = 1.0 - self._verified_mass / self._total_mass
        else:
            unverified = 0.0
        risk = unverified * warmup
        breach = warmup >= 0.75 and risk > self.breach_risk
        return RiskAssessment(
            risk=risk,
            verified_in_window=int(round(self._verified_mass)),
            window_fill=int(round(self._total_mass)),
            window_size=int(round(self.saturation_mass)),
            breach=breach,
        )
