"""Biometric and detection metrics: ROC, EER, FAR/FRR, latency stats."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RocCurve", "roc_curve", "equal_error_rate", "far_frr_at",
           "detection_latency_stats", "LatencyStats",
           "eer_confidence_interval"]


@dataclass(frozen=True)
class RocCurve:
    """Operating points swept over thresholds."""

    thresholds: np.ndarray
    far: np.ndarray  # false accept rate per threshold
    frr: np.ndarray  # false reject rate per threshold


def roc_curve(genuine_scores: np.ndarray, impostor_scores: np.ndarray,
              n_thresholds: int = 201) -> RocCurve:
    """Sweep thresholds over [0, 1]; accept when score >= threshold."""
    genuine = np.asarray(genuine_scores, dtype=np.float64)
    impostor = np.asarray(impostor_scores, dtype=np.float64)
    if genuine.size == 0 or impostor.size == 0:
        raise ValueError("need non-empty genuine and impostor scores")
    thresholds = np.linspace(0.0, 1.0, n_thresholds)
    far = np.array([(impostor >= t).mean() for t in thresholds])
    frr = np.array([(genuine < t).mean() for t in thresholds])
    return RocCurve(thresholds=thresholds, far=far, frr=frr)


def equal_error_rate(genuine_scores: np.ndarray,
                     impostor_scores: np.ndarray) -> tuple[float, float]:
    """(EER, threshold): the operating point where FAR crosses FRR.

    Returns the midpoint of FAR and FRR at the threshold minimizing their
    gap — the standard finite-sample EER estimate.
    """
    curve = roc_curve(genuine_scores, impostor_scores)
    gap = np.abs(curve.far - curve.frr)
    index = int(np.argmin(gap))
    eer = float((curve.far[index] + curve.frr[index]) / 2.0)
    return eer, float(curve.thresholds[index])


def far_frr_at(genuine_scores: np.ndarray, impostor_scores: np.ndarray,
               threshold: float) -> tuple[float, float]:
    """(FAR, FRR) at a fixed decision threshold."""
    genuine = np.asarray(genuine_scores, dtype=np.float64)
    impostor = np.asarray(impostor_scores, dtype=np.float64)
    return float((impostor >= threshold).mean()), float((genuine < threshold).mean())


def eer_confidence_interval(genuine_scores: np.ndarray,
                            impostor_scores: np.ndarray,
                            n_bootstrap: int = 500,
                            confidence: float = 0.90
                            ) -> tuple[float, float, float]:
    """(EER, ci_low, ci_high) via bootstrap resampling of both score sets.

    Synthetic-population EERs carry sampling noise; reporting the interval
    keeps benchmark claims honest about it.  The resampling is seeded with
    0, so one score set always gives the same interval.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    genuine = np.asarray(genuine_scores, dtype=np.float64)
    impostor = np.asarray(impostor_scores, dtype=np.float64)
    point, _ = equal_error_rate(genuine, impostor)
    rng = np.random.default_rng(0)
    samples = np.empty(n_bootstrap)
    for index in range(n_bootstrap):
        g = genuine[rng.integers(genuine.size, size=genuine.size)]
        i = impostor[rng.integers(impostor.size, size=impostor.size)]
        samples[index], _ = equal_error_rate(g, i)
    tail = (1.0 - confidence) / 2.0
    low, high = np.quantile(samples, [tail, 1.0 - tail])
    return point, float(low), float(high)


@dataclass(frozen=True)
class LatencyStats:
    """Summary of detection latencies (touches-to-lock)."""

    n: int
    detected: int
    mean: float
    median: float
    p90: float
    worst: float

    @property
    def detection_rate(self) -> float:
        """Fraction of trials in which the impostor was detected."""
        return self.detected / self.n if self.n else 0.0


def detection_latency_stats(latencies: list[int | None]) -> LatencyStats:
    """Summarize a list of per-trial latencies (None = never detected)."""
    if not latencies:
        raise ValueError("need at least one trial")
    detected = [float(latency) for latency in latencies if latency is not None]
    if not detected:
        return LatencyStats(n=len(latencies), detected=0, mean=float("inf"),
                            median=float("inf"), p90=float("inf"),
                            worst=float("inf"))
    arr = np.array(detected)
    return LatencyStats(
        n=len(latencies), detected=len(detected),
        mean=float(arr.mean()), median=float(np.median(arr)),
        p90=float(np.percentile(arr, 90)), worst=float(arr.max()),
    )
