"""Evaluation utilities: metrics, text reporting, experiment harness."""

from .metrics import (
    LatencyStats,
    eer_confidence_interval,
    RocCurve,
    detection_latency_stats,
    equal_error_rate,
    far_frr_at,
    roc_curve,
)
from .reporting import format_si, render_density, render_series, render_table
from .harness import (LOGIN_BUTTON_XY, Deployment, build_deployment,
                      standard_deployment)

__all__ = [
    "RocCurve", "roc_curve", "equal_error_rate", "far_frr_at",
    "LatencyStats", "detection_latency_stats", "eer_confidence_interval",
    "render_table", "render_density", "render_series", "format_si",
    "Deployment", "build_deployment", "standard_deployment",
    "LOGIN_BUTTON_XY",
]
