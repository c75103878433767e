"""FVC-style synthetic fingerprint datasets.

FVC (Fingerprint Verification Competition) datasets are organized as
``n_fingers`` subjects x ``n_impressions`` captures each; evaluation runs
all genuine pairs (same finger, different impressions) and a sampling of
impostor pairs (different fingers).  Since the offline environment has no
FVC data, this module synthesizes datasets with the same structure from
master fingerprints, with capture conditions drawn from a configurable
difficulty profile (full presses for enrollment-grade sets, small rotated
noisy patches for the in-display partial-capture sets).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .impression import CaptureCondition, Impression, render_impression
from .synthesis import MasterFingerprint, synthesize_master

__all__ = ["DifficultyProfile", "FingerprintDataset", "build_dataset"]


@dataclass(frozen=True)
class DifficultyProfile:
    """Distribution of capture conditions for one dataset."""

    name: str
    radius: tuple[float, float] | None = None  # contact radius range; None = full
    rotation_deg: tuple[float, float] = (-15.0, 15.0)
    translation_px: float = 8.0
    distortion: tuple[float, float] = (0.0, 1.5)
    pressure: tuple[float, float] = (0.35, 0.65)
    motion_px: tuple[float, float] = (0.0, 0.5)
    noise: tuple[float, float] = (0.02, 0.08)
    dropout: tuple[float, float] = (0.0, 0.05)

    @staticmethod
    def enrollment_grade() -> "DifficultyProfile":
        """Clean, centred, full-contact presses (explicit enrollment)."""
        return DifficultyProfile(
            name="enrollment",
            radius=None,
            rotation_deg=(-5.0, 5.0),
            translation_px=3.0,
            distortion=(0.0, 0.5),
            pressure=(0.45, 0.55),
            motion_px=(0.0, 0.0),
            noise=(0.01, 0.04),
            dropout=(0.0, 0.01),
        )

    @staticmethod
    def touch_grade() -> "DifficultyProfile":
        """Opportunistic in-display captures: partial, rotated, noisy.

        The contact radius matches the hardware path: a 4 mm fingertip
        contact at 50 um cell pitch is an 80-cell patch (see
        ``repro.flock.fingerprint_controller.CONTACT_RADIUS_MM``).
        """
        return DifficultyProfile(
            name="touch",
            radius=(80.0 * 0.85, 80.0),
            rotation_deg=(-25.0, 25.0),
            translation_px=15.0,
            distortion=(0.0, 2.0),
            pressure=(0.25, 0.75),
            motion_px=(0.0, 1.0),
            noise=(0.03, 0.08),
            dropout=(0.0, 0.03),
        )

    def sample_condition(self, rng: np.random.Generator,
                         master_shape: tuple[int, int]) -> CaptureCondition:
        """Draw one capture condition from the profile."""
        radius = None
        center = None
        if self.radius is not None:
            radius = float(rng.uniform(*self.radius))
            # Touch lands anywhere that keeps most of the patch on-finger.
            margin = radius * 0.8
            center = (
                float(rng.uniform(margin, master_shape[0] - margin)),
                float(rng.uniform(margin, master_shape[1] - margin)),
            )
        return CaptureCondition(
            center=center,
            radius=radius,
            rotation_deg=float(rng.uniform(*self.rotation_deg)),
            translation=(
                float(rng.uniform(-self.translation_px, self.translation_px)),
                float(rng.uniform(-self.translation_px, self.translation_px)),
            ),
            distortion=float(rng.uniform(*self.distortion)),
            pressure=float(rng.uniform(*self.pressure)),
            motion_px=float(rng.uniform(*self.motion_px)),
            noise=float(rng.uniform(*self.noise)),
            dropout=float(rng.uniform(*self.dropout)),
        )


@dataclass
class FingerprintDataset:
    """``n_fingers`` masters with ``n_impressions`` rendered captures each."""

    name: str
    masters: list[MasterFingerprint]
    impressions: dict[str, list[Impression]] = field(default_factory=dict,
                                                     init=False)

    @property
    def finger_ids(self) -> list[str]:
        """Identifiers of all fingers in the dataset."""
        return [m.finger_id for m in self.masters]


def build_dataset(name: str, n_fingers: int, n_impressions: int,
                  profile: DifficultyProfile, seed: int,
                  master_shape: tuple[int, int] = (192, 192)) -> FingerprintDataset:
    """Synthesize a full dataset deterministically from ``seed``."""
    if n_fingers < 1 or n_impressions < 1:
        raise ValueError("need at least one finger and one impression")
    rng = np.random.default_rng(seed)
    masters = [
        synthesize_master(f"{name}-f{i:03d}", rng, shape=master_shape)
        for i in range(n_fingers)
    ]
    dataset = FingerprintDataset(name=name, masters=masters)
    for master in masters:
        captures = []
        for _ in range(n_impressions):
            condition = profile.sample_condition(rng, master.shape)
            captures.append(render_impression(master, condition, rng))
        dataset.impressions[master.finger_id] = captures
    return dataset
