"""PCM write-endurance tracking.

MLC PCM cells endure a limited number of RESET/SET cycles (the paper
cites shorter endurance than SLC as a key MLC drawback, Section 1).
This module tracks per-line and per-chip wear so wear-leveling schemes
(like the PWL strawman of Section 2.2) can be evaluated for *balance*,
not just performance.

Wear is counted at cell granularity: every changed cell of a line write
ages by one cycle. A line's lifetime ends when its most-worn cell
reaches the endurance limit, so the balance of wear *within* a line
(what intra-line wear leveling improves) directly determines lifetime.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import ConfigError

#: A typical 2-bit MLC PCM endurance budget (cycles per cell).
DEFAULT_MLC_ENDURANCE = 10_000_000


class WearTracker:
    """Per-line cell-wear accounting for one DIMM."""

    def __init__(self, cells_per_line: int,
                 endurance: int = DEFAULT_MLC_ENDURANCE):
        if cells_per_line <= 0:
            raise ConfigError("cells_per_line must be positive")
        if endurance <= 0:
            raise ConfigError("endurance must be positive")
        self.cells_per_line = cells_per_line
        self.endurance = endurance
        self._wear: Dict[int, np.ndarray] = {}
        self.total_cell_writes = 0
        self.line_writes = 0

    def record_write(self, line_addr: int, changed_idx: np.ndarray,
                     offset: int = 0) -> None:
        """Age the physically-written cells of a line by one cycle.

        ``offset`` is the intra-line wear-leveling rotation in effect
        for this write, so rotated writes age the *physical* cells they
        actually touched.
        """
        changed_idx = np.asarray(changed_idx)
        if changed_idx.size == 0:
            return
        if changed_idx.max() >= self.cells_per_line or changed_idx.min() < 0:
            raise ConfigError("changed cell index out of range")
        wear = self._wear.get(line_addr)
        if wear is None:
            wear = np.zeros(self.cells_per_line, dtype=np.int64)
            self._wear[line_addr] = wear
        physical = (changed_idx + offset) % self.cells_per_line
        wear[physical] += 1
        self.total_cell_writes += changed_idx.size
        self.line_writes += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def line_wear(self, line_addr: int) -> np.ndarray:
        wear = self._wear.get(line_addr)
        if wear is None:
            return np.zeros(self.cells_per_line, dtype=np.int64)
        return wear.copy()

    def max_wear(self, line_addr: Optional[int] = None) -> int:
        """Most-worn cell of one line (or of the whole DIMM)."""
        if line_addr is not None:
            return int(self.line_wear(line_addr).max(initial=0))
        return max(
            (int(w.max()) for w in self._wear.values()), default=0
        )

    def wear_imbalance(self, line_addr: int) -> float:
        """Max/mean wear within a line (1.0 = perfectly even).

        This is the quantity intra-line wear leveling minimizes: a
        line dies when its most-worn cell dies, so lifetime scales with
        1/imbalance for a fixed write volume.
        """
        wear = self._wear.get(line_addr)
        if wear is None or not wear.any():
            return 1.0
        mean = wear.mean()
        return float(wear.max() / mean) if mean > 0 else 1.0

    def mean_imbalance(self) -> float:
        """Average intra-line wear imbalance over all written lines."""
        values = [self.wear_imbalance(addr) for addr in self._wear]
        return float(np.mean(values)) if values else 1.0

    @property
    def lines_tracked(self) -> int:
        return len(self._wear)

    def __repr__(self) -> str:
        return (
            f"WearTracker(lines={self.lines_tracked}, "
            f"cell_writes={self.total_cell_writes}, "
            f"endurance={self.endurance})"
        )
