"""Sensor design specifications, including the five Table II references.

Table II of the paper surveys published capacitive fingerprint sensors:

    | Ref  | Cell size | Resolution | Response | Frequency     |
    |------|-----------|------------|----------|---------------|
    | [24] | 42 um     | 64 x 256   | 3 ms     | 4 MHz         |
    | [20] | 81.6 um   | 124 x 166  | 2 ms     | not mentioned |
    | [10] | 60 um     | 320 x 250  | 160 ms   | 500 kHz       |
    | [9]  | 66 um     | 304 x 304  | 200 ms   | 250 kHz       |
    | [21] | 50 um     | 224 x 256  | 20 ms    | not mentioned |

Each spec carries the published numbers plus the addressing parameters our
timing model needs.  Where the paper's source did not state a clock, we
solve for the clock that reproduces the published response under the
design's addressing scheme (recorded in ``clock_inferred``); benchmark E2
reports modeled-vs-published response per design.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["AddressingMode", "SensorSpec", "TABLE2_SPECS", "FLOCK_SENSOR",
           "FLOCK_SENSOR_WIDE"]


class AddressingMode(Enum):
    """How the array is scanned.

    SERIAL          - one cell converted per clock cycle (classic designs).
    ROW_PARALLEL    - all cells of a row convert simultaneously in one cycle
                      (the paper's comparator-per-column design, Fig. 4),
                      then latched column data shifts out.
    """

    SERIAL = "serial"
    ROW_PARALLEL = "row-parallel"


@dataclass(frozen=True)
class SensorSpec:
    """One fingerprint sensor design point."""

    name: str
    reference: str  # citation tag from Table II, or "this-paper"
    cell_um: float
    rows: int
    cols: int
    clock_hz: float
    addressing: AddressingMode
    cells_per_cycle: int = 1  # SERIAL pipelining factor (ADC lanes)
    transfer_lanes: int = 0  # ROW_PARALLEL: columns shifted out per cycle;
    #                          0 means transfer overlaps conversion (free)
    published_response_ms: float | None = None
    clock_inferred: bool = False

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array must have positive dimensions")
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")
        if self.cells_per_cycle < 1:
            raise ValueError("cells_per_cycle must be >= 1")
        if self.transfer_lanes < 0:
            raise ValueError("transfer_lanes must be >= 0")

    @property
    def cells(self) -> int:
        """Total sensing cells in the array."""
        return self.rows * self.cols

    @property
    def width_mm(self) -> float:
        """Physical array width."""
        return self.cols * self.cell_um / 1000.0

    @property
    def height_mm(self) -> float:
        """Physical array height."""
        return self.rows * self.cell_um / 1000.0


def _table2() -> tuple[SensorSpec, ...]:
    return (
        # Lee et al. [24]: 64x256 at 4 MHz. 16384 cells / 4 MHz = 4.1 ms
        # serial; the published 3 ms implies modest column pipelining, which
        # their image-synthesis readout provides.  Modeled with 1.4-lane
        # equivalent rounded to cells_per_cycle=1 (reported gap ~1.4x).
        SensorSpec(
            name="lee-600dpi", reference="[24]", cell_um=42.0,
            rows=64, cols=256, clock_hz=4_000_000,
            addressing=AddressingMode.SERIAL,
            published_response_ms=3.0,
        ),
        # Shigematsu et al. [20]: clock not published; the 2 ms response on
        # a 124x166 array implies ~10.3 MHz serial-equivalent throughput.
        SensorSpec(
            name="shigematsu-identifier", reference="[20]", cell_um=81.6,
            rows=124, cols=166, clock_hz=10_292_000,
            addressing=AddressingMode.SERIAL,
            published_response_ms=2.0, clock_inferred=True,
        ),
        # Hashido et al. [10]: 320x250 at 500 kHz serial = 160 ms exactly.
        SensorSpec(
            name="hashido-tft", reference="[10]", cell_um=60.0,
            rows=320, cols=250, clock_hz=500_000,
            addressing=AddressingMode.SERIAL,
            published_response_ms=160.0,
        ),
        # Hara et al. [9]: 304x304 at 250 kHz; the published 200 ms implies
        # ~1.85 cells/cycle (their integrated comparator converts two
        # columns per access); modeled as cells_per_cycle=2 -> 185 ms.
        SensorSpec(
            name="hara-lt-polysi", reference="[9]", cell_um=66.0,
            rows=304, cols=304, clock_hz=250_000,
            addressing=AddressingMode.SERIAL, cells_per_cycle=2,
            published_response_ms=200.0,
        ),
        # Shimamura et al. [21]: clock not published; 20 ms on 224x256
        # implies ~2.87 MHz serial-equivalent throughput.
        SensorSpec(
            name="shimamura-lsi", reference="[21]", cell_um=50.0,
            rows=224, cols=256, clock_hz=2_867_200,
            addressing=AddressingMode.SERIAL,
            published_response_ms=20.0, clock_inferred=True,
        ),
    )


#: The five published designs surveyed in Table II.
TABLE2_SPECS: tuple[SensorSpec, ...] = _table2()

#: The paper's own design point: a transparent TFT array with the Fig. 4
#: row-parallel comparator/latch readout and selective column transfer.
#: 256x256 cells at 50 um (12.8 mm square — fingertip sized) clocked at
#: 4 MHz: full-array capture in 256 row-cycles + transfer.
FLOCK_SENSOR = SensorSpec(
    name="flock-tft", reference="this-paper", cell_um=50.0,
    rows=256, cols=256, clock_hz=4_000_000,
    addressing=AddressingMode.ROW_PARALLEL, transfer_lanes=16,
    published_response_ms=None,
)

#: Wide variant (12.8 x 19.2 mm) for elongated hot-spots such as the soft
#: keyboard's home rows; same cell pitch, clocking and readout as
#: FLOCK_SENSOR, just 384 columns.  Windowed captures cost the same; only
#: full-frame scans pay for the extra columns.
FLOCK_SENSOR_WIDE = SensorSpec(
    name="flock-tft-wide", reference="this-paper", cell_um=50.0,
    rows=256, cols=384, clock_hz=4_000_000,
    addressing=AddressingMode.ROW_PARALLEL, transfer_lanes=16,
    published_response_ms=None,
)
