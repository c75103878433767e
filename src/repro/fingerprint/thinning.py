"""Zhang-Suen skeletonization of binarized ridge maps.

Minutiae extraction needs one-pixel-wide ridges; Zhang-Suen iteratively peels
boundary pixels while preserving connectivity and line ends.  Whether a ridge
pixel goes in a phase depends only on its 8 neighbours P2..P9, so each
phase's removal rule is a 256-entry table indexed by the neighbourhood code
(P2, north, is bit 0; the bits run clockwise to P9, north-west, bit 7).  A
phase is eight multiply-or passes for the codes plus one table lookup
instead of dozens of full-frame array operations.  The tables are built
from the textbook conditions below, so the skeleton is exactly the one the
condition-by-condition formulation produces.  Minutiae extraction reads
the crossing number from a table over the same code.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zhang_suen_thin"]

#: Each neighbour's weight in the 8-neighbour code, P2 first.
_WEIGHTS = tuple(np.uint8(1 << bit) for bit in range(8))


def _neighbour_bits(code: int) -> tuple[int, ...]:
    """P2..P9 of one 8-neighbour code, 0 or 1 each."""
    return tuple((code >> bit) & 1 for bit in range(8))


def _ring(cells: np.ndarray) -> tuple[np.ndarray, ...]:
    """P2..P9 of every interior pixel of a zero-padded uint8 frame, as views."""
    return (cells[:-2, 1:-1], cells[:-2, 2:], cells[1:-1, 2:], cells[2:, 2:],
            cells[2:, 1:-1], cells[2:, :-2], cells[1:-1, :-2], cells[:-2, :-2])


def _neighbour_code(ring: tuple[np.ndarray, ...]) -> np.ndarray:
    """The 8-neighbour code of every pixel whose P2..P9 are ``ring``."""
    code = ring[0].copy()
    for weight, neighbour in zip(_WEIGHTS[1:], ring[1:]):
        code |= neighbour * weight
    return code


def _removal_table(phase: int) -> np.ndarray:
    """Zhang-Suen's removal rule for ``phase``, per 8-neighbour code."""
    table = np.zeros(256, dtype=bool)
    for code in range(256):
        p2, p3, p4, p5, p6, p7, p8, p9 = _neighbour_bits(code)
        ring = (p2, p3, p4, p5, p6, p7, p8, p9, p2)
        # Transitions 0->1 in the circular sequence P2..P9,P2.
        transitions = sum(a == 0 and b == 1 for a, b in zip(ring, ring[1:]))
        if phase == 0:
            peel = p2 * p4 * p6 == 0 and p4 * p6 * p8 == 0
        else:
            peel = p2 * p4 * p8 == 0 and p2 * p6 * p8 == 0
        table[code] = 2 <= sum(ring[:8]) <= 6 and transitions == 1 and peel
    return table


_REMOVABLE = (_removal_table(0), _removal_table(1))


def zhang_suen_thin(binary: np.ndarray, max_iterations: int = 200) -> np.ndarray:
    """Thin a boolean ridge map to a one-pixel skeleton.

    Raises ValueError if the input is not boolean.  Terminates when an
    iteration removes no pixels (always within ``max_iterations`` for any
    finite image).
    """
    if binary.dtype != bool:
        raise ValueError("zhang_suen_thin expects a boolean array")
    padded = np.pad(binary, 1)
    img = padded[1:-1, 1:-1]
    # P2..P9 as views, so every removal shows in the next phase's codes.
    ring = _ring(padded.view(np.uint8))

    for _ in range(max_iterations):
        changed = False
        for table in _REMOVABLE:
            removable = img & np.take(table, _neighbour_code(ring))
            if removable.any():
                img[removable] = False
                changed = True
        if not changed:
            break
    return img.copy()
