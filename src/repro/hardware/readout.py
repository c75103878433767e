"""Readout policy comparison: the paper's capture-speed argument (E4).

Section III-A claims that "using parallel addressing and selected data
transfer, the fingerprint capture speed can be greatly improved."  Three
readout policies are compared for capturing a fingertip window on an array:

- ``FULL_SERIAL``       — legacy: scan every cell of the array serially.
- ``FULL_ROW_PARALLEL`` — Fig. 4 comparator-per-column conversion, but the
                          whole array is scanned and every column shifted out.
- ``WINDOW_SELECTIVE``  — the paper's design: only the rows under the touch
                          are enabled and only the latched columns inside the
                          touch window are transferred.

All three run on the same :class:`~repro.hardware.sensor_array.SensorArray`
timing model; only the scanned window and addressing mode differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace
from enum import Enum

from .sensor_array import CaptureWindow, SensorArray
from .specs import AddressingMode, SensorSpec

__all__ = ["ReadoutPolicy", "PolicyTiming", "compare_policies"]


class ReadoutPolicy(Enum):
    """The three readout disciplines compared in E4."""
    FULL_SERIAL = "full-serial"
    FULL_ROW_PARALLEL = "full-row-parallel"
    WINDOW_SELECTIVE = "window-selective"


@dataclass(frozen=True)
class PolicyTiming:
    """Capture cost of one policy for one (array, touch window) pair."""

    policy: ReadoutPolicy
    cycles: int
    time_ms: float
    cells_sensed: int
    bits_transferred: int


def _array_for(spec: SensorSpec, policy: ReadoutPolicy) -> SensorArray:
    """The same physical array under a policy's addressing discipline."""
    if policy is ReadoutPolicy.FULL_SERIAL:
        spec = dataclass_replace(spec, addressing=AddressingMode.SERIAL,
                                 cells_per_cycle=1)
    else:
        if spec.addressing is not AddressingMode.ROW_PARALLEL:
            spec = dataclass_replace(spec, addressing=AddressingMode.ROW_PARALLEL)
    return SensorArray(spec)


def compare_policies(spec: SensorSpec,
                     window: CaptureWindow) -> list[PolicyTiming]:
    """Cost of capturing ``window`` under each policy (same silicon)."""
    results = []
    for policy in ReadoutPolicy:
        array = _array_for(spec, policy)
        if policy is ReadoutPolicy.WINDOW_SELECTIVE:
            scanned = window.clamp(spec.rows, spec.cols)
        else:
            scanned = CaptureWindow.full(spec)
        cycles = array.cycles_for(scanned)
        results.append(PolicyTiming(
            policy=policy,
            cycles=cycles,
            time_ms=cycles / array.spec.clock_hz * 1000.0,
            cells_sensed=scanned.n_cells,
            bits_transferred=scanned.n_cells,
        ))
    return results
