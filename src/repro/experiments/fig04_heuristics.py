"""Figure 4: simple power-management heuristics under MLC PCM.

Normalized to Ideal (no power limit). The paper's findings: DIMM-only
loses 33% (iteration-oblivious budgeting), DIMM+chip loses 51% (chip
power blocking), PWL gains ~2% over DIMM+chip, 2xlocal nearly restores
DIMM-only while 1.5xlocal still loses ~20%, and deeper/out-of-order
write queues (sche-24/48/96) barely help.
"""

from __future__ import annotations

from .base import SpeedupFigure


class Fig04Heuristics(SpeedupFigure):
    exp_id = "fig4"
    title = "Performance of power-management heuristics (normalized to Ideal)"
    paper_claim = (
        "DIMM-only = 0.67x Ideal, DIMM+chip = 0.49x Ideal; PWL +2% over "
        "DIMM+chip; 2xlocal ~ DIMM-only, 1.5xlocal still 20% below; "
        "sche-X has little effect (Figure 4)."
    )
    schemes = (
        "ideal", "dimm-only", "dimm+chip", "pwl",
        "1.5xlocal", "2xlocal", "sche24", "sche48", "sche96",
    )
    baseline = "ideal"
    notes = "values are speedups relative to Ideal (<= 1.0)."
