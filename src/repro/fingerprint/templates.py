"""Fingerprint templates and enrollment.

A *template* is the stored representation FLock keeps in protected flash
(the paper's assumption 1: templates never leave the module).  It is a list
of minutiae plus provenance metadata, serializable to bytes so the identity
transfer protocol (E13) can ship encrypted templates between devices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .impression import CaptureCondition, Impression, render_impression
from .minutiae import Minutia, minutiae_from_image
from .synthesis import MasterFingerprint

__all__ = ["FingerprintTemplate", "enroll_from_impressions", "enroll_master"]

#: A later impression's minutia joins the template only if no template
#: minutia lies within this many pixels of it.
CONSOLIDATION_RADIUS = 8.0
#: Clean full presses :func:`enroll_master` renders and consolidates.
ENROLLMENT_IMPRESSIONS = 3


@dataclass
class FingerprintTemplate:
    """Stored minutiae template for one enrolled finger."""

    finger_id: str
    minutiae: list[Minutia]
    source_impressions: int = 1
    metadata: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Number of minutiae in the template."""
        return len(self.minutiae)

    def to_bytes(self) -> bytes:
        """Canonical serialization (used by identity transfer, E13)."""
        payload = {
            "finger_id": self.finger_id,
            "source_impressions": self.source_impressions,
            "metadata": self.metadata,
            "minutiae": [
                [m.row, m.col, m.direction, m.kind] for m in self.minutiae
            ],
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "FingerprintTemplate":
        """Parse a template from its canonical serialization."""
        payload = json.loads(data.decode("utf-8"))
        minutiae = [
            Minutia(row=float(r), col=float(c), direction=float(d), kind=str(k))
            for r, c, d, k in payload["minutiae"]
        ]
        return cls(
            finger_id=payload["finger_id"],
            minutiae=minutiae,
            source_impressions=int(payload["source_impressions"]),
            metadata=dict(payload["metadata"]),
        )


def enroll_from_impressions(finger_id: str,
                            impressions: list[Impression]) -> FingerprintTemplate:
    """Build a template by consolidating minutiae across impressions.

    The first impression seeds the template; minutiae from later impressions
    are added if no existing template minutia lies within
    ``CONSOLIDATION_RADIUS`` (a simple mosaic — enough to show multi-touch
    enrollment improving template size, exercised in the tests).
    """
    if not impressions:
        raise ValueError("need at least one impression to enroll")
    consolidated: list[Minutia] = []
    for impression in impressions:
        for minutia in minutiae_from_image(impression.image, impression.mask):
            if all(
                (minutia.row - m.row) ** 2 + (minutia.col - m.col) ** 2
                >= CONSOLIDATION_RADIUS**2
                for m in consolidated
            ):
                consolidated.append(minutia)
    return FingerprintTemplate(
        finger_id=finger_id,
        minutiae=consolidated,
        source_impressions=len(impressions),
    )


def enroll_master(master: MasterFingerprint,
                  rng: np.random.Generator) -> FingerprintTemplate:
    """Convenience enrollment: render clean full presses and consolidate.

    This models the explicit enrollment step a user performs once per
    device; conditions are favourable (centred, full contact, low noise).
    """
    impressions = [
        render_impression(
            master,
            CaptureCondition(
                rotation_deg=float(rng.uniform(-5.0, 5.0)),
                translation=(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))),
                pressure=0.5,
                noise=0.03,
            ),
            rng,
        )
        for _ in range(ENROLLMENT_IMPRESSIONS)
    ]
    template = enroll_from_impressions(master.finger_id, impressions)
    template.metadata["pattern"] = master.pattern_name
    return template
