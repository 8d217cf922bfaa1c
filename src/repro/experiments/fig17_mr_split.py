"""Figure 17: how many iterations to split the RESET into.

IPM + Multi-RESET with 2/3/4-way splits, over DIMM+chip. The paper: 3
is best; 4 loses ~2% to the longer write latency.
"""

from __future__ import annotations

from .base import SpeedupFigure


class Fig17MRSplit(SpeedupFigure):
    exp_id = "fig17"
    title = "Multi-RESET iteration split limit (2 vs 3 vs 4)"
    paper_claim = (
        "Best improvement at 3 RESET splits; 4 splits lose ~2% to the "
        "longer write latency (Figure 17)."
    )
    schemes = ("ipm+mr2", "ipm+mr3", "ipm+mr4")
