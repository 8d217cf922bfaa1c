"""Figure 13: maximum power tokens requested from the GCP.

Per workload and mapping/efficiency combination, the peak concurrent
GCP output. The paper's maxima: 66 tokens for the naive mapping, 16 for
VIM, 28 for BIM — the basis of Table 3's area comparison.
"""

from __future__ import annotations

from typing import Dict, List

from ..config.system import SystemConfig
from .base import (
    Experiment,
    ExperimentResult,
    Results,
    RunRequest,
    RunScale,
    Runs,
)

COMBOS = (
    ("ne", 0.7), ("ne", 0.5),
    ("vim", 0.7), ("vim", 0.5),
    ("bim", 0.7), ("bim", 0.5),
)

#: One column per mapping/efficiency combo, e.g. ``NE-0.7``.
COLUMNS = tuple(f"{mapping.upper()}-{eff}" for mapping, eff in COMBOS)


def combo_runs(config: SystemConfig, scale: RunScale) -> Runs:
    """The GCP runs of Figures 13 and 14, keyed ``(workload, column)``."""
    return {
        (workload, column): RunRequest(
            config, workload, f"gcp-{mapping}-{eff}", scale)
        for workload in scale.workloads
        for (mapping, eff), column in zip(COMBOS, COLUMNS)
    }


class Fig13MaxTokens(Experiment):
    exp_id = "fig13"
    title = "Maximum number of tokens requested from the GCP"
    paper_claim = (
        "Max requested tokens: 66 (NE), 16 (VIM), 28 (BIM) — advanced "
        "mappings need a much smaller global pump (Figure 13)."
    )

    def runs(self, config: SystemConfig, scale: RunScale) -> Runs:
        return combo_runs(config, scale)

    def render(self, config: SystemConfig, scale: RunScale,
               results: Results) -> ExperimentResult:
        columns = ["workload", *COLUMNS]
        rows: List[Dict[str, object]] = []
        maxima: Dict[str, float] = {c: 0.0 for c in COLUMNS}
        for workload in scale.workloads:
            row: Dict[str, object] = {"workload": workload}
            for col in COLUMNS:
                peak = results[workload, col].stats.gcp_peak_output
                row[col] = peak
                maxima[col] = max(maxima[col], peak)
            rows.append(row)
        max_row: Dict[str, object] = {"workload": "max"}
        max_row.update(maxima)
        rows.append(max_row)
        return ExperimentResult(
            self.exp_id, self.title, columns, rows,
            paper_claim=self.paper_claim,
        )
