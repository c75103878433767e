"""Calibrated statistical matcher model for large-scale simulations.

Running the image pipeline (render -> enhance -> thin -> extract -> match)
for every one of the tens of thousands of touches in the continuous-auth
experiments would dominate wall-clock time without changing the conclusions:
what those experiments consume is only the matcher's *score distributions*.

``CalibratedScoreModel`` is fitted once from genuine/impostor score samples
produced by the real :class:`~repro.fingerprint.matching.MinutiaeMatcher`
(see ``examples/quickstart.py`` and benchmark E7), then draws scores by
resampling smoothed empirical distributions.  This is the standard
trace-calibrated-model methodology; the substitution is documented in
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CalibratedScoreModel", "DEFAULT_PARTIAL_MODEL", "DEFAULT_FULL_MODEL"]


@dataclass
class CalibratedScoreModel:
    """Genuine/impostor score sampler with jittered empirical resampling."""

    genuine_scores: np.ndarray
    impostor_scores: np.ndarray
    jitter: float = 0.02

    def __post_init__(self) -> None:
        self.genuine_scores = np.asarray(self.genuine_scores, dtype=np.float64)
        self.impostor_scores = np.asarray(self.impostor_scores, dtype=np.float64)
        if self.genuine_scores.size == 0 or self.impostor_scores.size == 0:
            raise ValueError("need non-empty genuine and impostor samples")
        bad = lambda a: (a < 0).any() or (a > 1).any()  # noqa: E731
        if bad(self.genuine_scores) or bad(self.impostor_scores):
            raise ValueError("scores must lie in [0, 1]")

    def sample(self, genuine: bool, rng: np.random.Generator) -> float:
        """Draw one match score for a genuine or impostor comparison."""
        pool = self.genuine_scores if genuine else self.impostor_scores
        base = float(pool[int(rng.integers(pool.size))])
        return float(np.clip(base + rng.normal(0.0, self.jitter), 0.0, 1.0))

    @classmethod
    def from_beta(cls, genuine_ab: tuple[float, float],
                  impostor_ab: tuple[float, float]) -> "CalibratedScoreModel":
        """Construct from beta-distribution parameters (analytic fallback):
        2000 draws of each from a generator seeded with 7, jittered by 0.01.
        """
        rng = np.random.default_rng(7)
        return cls(
            genuine_scores=rng.beta(*genuine_ab, size=2000),
            impostor_scores=rng.beta(*impostor_ab, size=2000),
            jitter=0.01,
        )


def _default_model(genuine_ab: tuple[float, float],
                   impostor_ab: tuple[float, float]) -> CalibratedScoreModel:
    return CalibratedScoreModel.from_beta(genuine_ab, impostor_ab)


#: Score model shaped like the real matcher on *partial* touch-grade
#: captures (the beta parameters were chosen to match E7 measurements:
#: genuine scores concentrated near 0.45, impostors near 0.08, modest
#: overlap — a partial-print EER of a few percent).
DEFAULT_PARTIAL_MODEL = _default_model(genuine_ab=(6.0, 7.0),
                                       impostor_ab=(2.0, 22.0))

#: Score model shaped like the real matcher on *full* enrollment-grade
#: captures (high genuine scores, near-zero overlap).
DEFAULT_FULL_MODEL = _default_model(genuine_ab=(12.0, 5.0),
                                    impostor_ab=(1.5, 30.0))
