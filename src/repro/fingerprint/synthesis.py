"""Master-fingerprint synthesis (SFinGe-style).

A *master fingerprint* is the noiseless, full-area ridge pattern of one
finger.  Individual captures — full presses on an enrollment sensor, or the
small partial patches the paper's in-display TFT sensors see — are rendered
from the master by :mod:`repro.fingerprint.impression`.

Construction: pick a Henry pattern class, build a Sherlock-Monro orientation
field with a per-finger random perturbation, choose a ridge wavelength, then
grow ridges by iterated steered Gabor filtering from a sparse random seed.
The (class, field perturbation, wavelength, seed) tuple is unique per finger,
which gives realistic within-class/between-finger variation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gabor import GaborBank
from .orientation import FingerprintClass, SyntheticOrientationField

__all__ = ["MasterFingerprint", "synthesize_master"]


@dataclass
class MasterFingerprint:
    """The ground-truth ridge pattern of one synthetic finger."""

    finger_id: str
    pattern_name: str
    image: np.ndarray  # float64 in [0, 1], 1.0 = ridge
    orientation: np.ndarray  # radians in [0, pi)
    wavelength: float
    shape: tuple[int, int] = field(init=False)

    def __post_init__(self) -> None:
        if self.image.shape != self.orientation.shape:
            raise ValueError("image and orientation shapes differ")
        self.shape = self.image.shape


def synthesize_master(finger_id: str, rng: np.random.Generator,
                      shape: tuple[int, int] = (192, 192),
                      pattern: FingerprintClass | None = None,
                      wavelength: float | None = None) -> MasterFingerprint:
    """Generate one master fingerprint.

    Parameters
    ----------
    finger_id:
        Stable identifier (used by datasets and templates).
    rng:
        Seeded generator; the same rng state reproduces the same finger.
    shape:
        Master image size in pixels.  192x192 at a ~9 px ridge period models
        a full fingertip at ~250 dpi-equivalent resolution — comparable to
        the Table II sensor geometries.
    pattern:
        Henry class; random among the four classes when None.
    wavelength:
        Ridge period in pixels; drawn from [7.5, 9.5] when None (human ridge
        period is ~0.45 mm; this range yields 30-45 minutiae per master,
        matching real fingertip densities).
    """
    if pattern is None:
        classes = FingerprintClass.all_classes()
        pattern = classes[int(rng.integers(len(classes)))]
    if wavelength is None:
        wavelength = float(rng.uniform(7.5, 9.5))

    field_ = SyntheticOrientationField(
        pattern, shape, rng,
        base_angle=float(rng.uniform(-0.15, 0.15)),
        perturbation=float(rng.uniform(0.15, 0.35)),
    )
    bank = GaborBank(wavelength)

    # Sparse random impulses seed the growth; density ~ one per ridge-period
    # cell so every region converges to stripes rather than staying flat.
    seed = rng.standard_normal(shape) * 0.01
    n_impulses = int(shape[0] * shape[1] / (wavelength * wavelength))
    impulse_rows = rng.integers(0, shape[0], size=n_impulses)
    impulse_cols = rng.integers(0, shape[1], size=n_impulses)
    seed[impulse_rows, impulse_cols] += rng.choice((-1.0, 1.0), size=n_impulses)

    image = bank.synthesize(seed, field_.field, iterations=5)
    return MasterFingerprint(
        finger_id=finger_id,
        pattern_name=pattern.name,
        image=image,
        orientation=field_.field,
        wavelength=wavelength,
    )
