"""TFT array manufacturing defects and yield (section II-C economics).

The paper's case for TFT-on-glass sensors is *cost*: "It is the most cost
effective and scalable way for creating fingerprint sensors that can cover
larger areas."  Large-area low-temperature poly-Si arrays ship with
defects — dead cells, open scan lines, shorted column lines — and the
economic question is how many defects a biometric array can tolerate
before matching degrades, since tolerating defects is what makes yields
(and the paper's cost argument) work.

``DefectMap`` models the standard defect classes; ``apply_to_capture``
corrupts a captured image exactly the way real defects do (stuck cells,
missing rows/columns).  Ablation A6 sweeps defect density against matcher
performance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DefectMap", "yield_fraction"]


@dataclass
class DefectMap:
    """Manufacturing defects of one array instance."""

    rows: int
    cols: int
    dead_cells: np.ndarray = field(default=None)  # bool (rows, cols)
    dead_rows: list[int] = field(default_factory=list)  # open scan lines
    dead_cols: list[int] = field(default_factory=list)  # shorted columns

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array dimensions must be positive")
        if self.dead_cells is None:
            self.dead_cells = np.zeros((self.rows, self.cols), dtype=bool)
        if self.dead_cells.shape != (self.rows, self.cols):
            raise ValueError("dead-cell map shape mismatch")
        for row in self.dead_rows:
            if not 0 <= row < self.rows:
                raise ValueError(f"dead row {row} out of range")
        for col in self.dead_cols:
            if not 0 <= col < self.cols:
                raise ValueError(f"dead column {col} out of range")

    @classmethod
    def sample(cls, rows: int, cols: int, rng: np.random.Generator,
               cell_defect_rate: float = 1e-4,
               line_defect_rate: float = 0.002) -> "DefectMap":
        """Draw a defect map from typical LTPS defect statistics.

        ``cell_defect_rate`` is per-cell; ``line_defect_rate`` per
        scan/column line.
        """
        if not 0 <= cell_defect_rate <= 1 or not 0 <= line_defect_rate <= 1:
            raise ValueError("defect rates must be probabilities")
        dead_cells = rng.random((rows, cols)) < cell_defect_rate
        dead_rows = [r for r in range(rows)
                     if rng.random() < line_defect_rate]
        dead_cols = [c for c in range(cols)
                     if rng.random() < line_defect_rate]
        return cls(rows=rows, cols=cols, dead_cells=dead_cells,
                   dead_rows=dead_rows, dead_cols=dead_cols)

    @property
    def total_dead_fraction(self) -> float:
        """Fraction of cells unusable (cells + full lines, deduplicated)."""
        mask = self.dead_cells.copy()
        for row in self.dead_rows:
            mask[row, :] = True
        for col in self.dead_cols:
            mask[:, col] = True
        return float(mask.mean())

    def apply_to_capture(self, image: np.ndarray,
                         window_row0: int = 0,
                         window_col0: int = 0) -> np.ndarray:
        """Corrupt a captured (possibly windowed) image.

        Dead cells/lines read as the comparator's idle value (False for
        binary captures, 0.5 for analog).  ``window_row0/col0`` locate the
        capture window inside the full array so the right defects land.
        """
        corrupted = image.copy()
        idle = False if image.dtype == bool else 0.5
        window_rows, window_cols = image.shape
        cells = self.dead_cells[window_row0:window_row0 + window_rows,
                                window_col0:window_col0 + window_cols]
        corrupted[cells] = idle
        for row in self.dead_rows:
            local = row - window_row0
            if 0 <= local < window_rows:
                corrupted[local, :] = idle
        for col in self.dead_cols:
            local = col - window_col0
            if 0 <= local < window_cols:
                corrupted[:, local] = idle
        return corrupted


    def window_mask(self, window_row0: int, window_col0: int,
                    window_rows: int, window_cols: int) -> np.ndarray:
        """Boolean dead-cell mask for a capture window."""
        mask = self.dead_cells[window_row0:window_row0 + window_rows,
                               window_col0:window_col0 + window_cols].copy()
        for row in self.dead_rows:
            local = row - window_row0
            if 0 <= local < window_rows:
                mask[local, :] = True
        for col in self.dead_cols:
            local = col - window_col0
            if 0 <= local < window_cols:
                mask[:, local] = True
        return mask

    def compensate(self, image: np.ndarray) -> np.ndarray:
        """Defect compensation on a full-array image: fill dead cells from
        nearest live cells.

        Production sensor pipelines carry a factory defect map and
        interpolate over it before feature extraction — this is what makes
        shipping defective-but-compensable panels (i.e. high yield)
        possible.  Nearest-neighbour fill is enough for the isolated cells
        and one-pixel lines that dominate LTPS defect statistics.
        """
        from scipy import ndimage

        mask = self.window_mask(0, 0, *image.shape)
        if not mask.any():
            return image.copy()
        if mask.all():
            return image.copy()
        _, (index_rows, index_cols) = ndimage.distance_transform_edt(
            mask, return_indices=True)
        filled = image.copy()
        filled[mask] = image[index_rows[mask], index_cols[mask]]
        return filled


def yield_fraction(n_panels: int, rows: int, cols: int,
                   rng: np.random.Generator,
                   max_dead_fraction: float,
                   cell_defect_rate: float = 1e-4,
                   line_defect_rate: float = 0.002) -> float:
    """Fraction of manufactured panels within the dead-cell budget.

    The budget comes from A6: the largest defect fraction at which matching
    still meets spec.  A looser budget is directly a higher yield — the
    quantitative form of the paper's cost argument.
    """
    if n_panels < 1:
        raise ValueError("need at least one panel")
    good = 0
    for _ in range(n_panels):
        defects = DefectMap.sample(rows, cols, rng,
                                   cell_defect_rate=cell_defect_rate,
                                   line_defect_rate=line_defect_rate)
        if defects.total_dead_fraction <= max_dead_fraction:
            good += 1
    return good / n_panels
