"""Figure 11: FPB-GCP speedup at different GCP power efficiencies.

Naive cell mapping, normalized to DIMM+chip. The paper: GCP-NE-0.95
restores DIMM-only performance (+36.3%), GCP-NE-0.7 gains 23.7%,
GCP-NE-0.5 almost nothing (+2.8%).
"""

from __future__ import annotations

from .base import SpeedupFigure


class Fig11GCPEfficiency(SpeedupFigure):
    exp_id = "fig11"
    title = "FPB-GCP speedup vs GCP power efficiency (naive mapping)"
    paper_claim = (
        "GCP-NE-0.95 +36.3% over DIMM+chip (= DIMM-only); "
        "GCP-NE-0.7 +23.7%; GCP-NE-0.5 +2.8% (Figure 11)."
    )
    schemes = ("dimm-only", "gcp-ne-0.95", "gcp-ne-0.7", "gcp-ne-0.5")
