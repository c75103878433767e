"""Hardware substrate: touchscreen, TFT sensor arrays, readout, power, placement.

Cycle-approximate behavioural models of the paper's Fig. 1-4 hardware.  All
latencies and energies are *modeled* quantities derived from array geometry
and clocking — deterministic and machine-independent.
"""

from .specs import AddressingMode, FLOCK_SENSOR, FLOCK_SENSOR_WIDE, SensorSpec, TABLE2_SPECS
from .touchscreen import LocatedTouch, TouchEvent, TouchPanel
from .sensor_array import CaptureResult, CaptureWindow, SensorArray
from .readout import (
    PolicyTiming,
    ReadoutPolicy,
    compare_policies,
)
from .power import EnergyBreakdown, PowerModel
from .optical import OpticalCapture, OpticalSensor, OpticalSensorSpec
from .defects import DefectMap, yield_fraction
from .placement import (
    PlacedSensor,
    SensorLayout,
    greedy_placement,
    grid_placement,
    random_placement,
)

__all__ = [
    "SensorSpec", "AddressingMode", "TABLE2_SPECS", "FLOCK_SENSOR",
    "FLOCK_SENSOR_WIDE",
    "TouchEvent", "LocatedTouch", "TouchPanel",
    "SensorArray", "CaptureWindow", "CaptureResult",
    "ReadoutPolicy", "PolicyTiming", "compare_policies",
    "PowerModel", "EnergyBreakdown",
    "OpticalSensorSpec", "OpticalSensor", "OpticalCapture",
    "DefectMap", "yield_fraction",
    "PlacedSensor", "SensorLayout",
    "greedy_placement", "grid_placement", "random_placement",
]
