"""Quality-evasion attack: the paper's first challenge in section IV-A.

    "an impostor may try to evade biometric protection by providing only
    low quality fingerprint data, which will be discarded by the system."

The evasive impostor deliberately touches badly — flick-fast, feather
light, off sensor edges — so captures fail the quality gate instead of
failing the matcher.  The defense is the counting policy: low-quality
captures occupy k-of-n window slots (``count_low_quality=True``), plus the
minimum-touch-time rule which refuses to act on uncapturable flicks.
:func:`evasive_tap` makes those touches; ablation A1 and the E6 window
sweep drive them through the real pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.touchgen import make_tap

__all__ = ["evasive_tap"]


def evasive_tap(time_s: float, x_mm: float, y_mm: float,
                finger_id: str, rng: np.random.Generator):
    """A deliberately low-quality touch: fast, light, brief."""
    return make_tap(
        time_s, x_mm, y_mm,
        pressure=float(rng.uniform(0.05, 0.15)),  # feather-light
        # Brief, but the attacker must sometimes dwell long enough for the
        # UI to register the press at all — those touches get captured.
        duration_s=float(rng.uniform(0.02, 0.09)),
        finger_id=finger_id,
        speed_mm_s=float(rng.uniform(80.0, 200.0)),  # smearing fast
    )
