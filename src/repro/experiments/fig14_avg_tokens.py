"""Figure 14: average power tokens requested per line write from the GCP.

The metric behind the energy-waste comparison: VIM and BIM reduce GCP
token requests by 78.5% and 64.4% versus the naive mapping at 70% GCP
efficiency, cutting the energy wasted in the inefficient global pump.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.metrics import percent_change
from ..config.system import SystemConfig
from .base import Experiment, ExperimentResult, Results, RunScale, Runs
from .fig13_max_tokens import COLUMNS, combo_runs


class Fig14AvgTokens(Experiment):
    exp_id = "fig14"
    title = "Average GCP tokens requested per line write"
    paper_claim = (
        "VIM and BIM reduce GCP token requests (energy waste) by 78.5% "
        "and 64.4% vs the naive mapping at 70% efficiency (Figure 14)."
    )

    def runs(self, config: SystemConfig, scale: RunScale) -> Runs:
        return combo_runs(config, scale)

    def render(self, config: SystemConfig, scale: RunScale,
               results: Results) -> ExperimentResult:
        columns = ["workload", *COLUMNS]
        rows: List[Dict[str, object]] = []
        sums: Dict[str, float] = {c: 0.0 for c in COLUMNS}
        for workload in scale.workloads:
            row: Dict[str, object] = {"workload": workload}
            for col in COLUMNS:
                avg = results[workload, col].stats.mean_gcp_tokens_per_write
                row[col] = avg
                sums[col] += avg
            rows.append(row)
        n = max(1, len(scale.workloads))
        avg_row: Dict[str, object] = {"workload": "avg"}
        avg_row.update({c: s / n for c, s in sums.items()})
        rows.append(avg_row)
        notes = ""
        ne, vim, bim = (avg_row.get(f"{m.upper()}-0.7", 0.0)
                        for m in ("ne", "vim", "bim"))
        if isinstance(ne, float) and ne > 0:
            notes = (
                f"reduction vs NE at 0.7: VIM "
                f"{-percent_change(ne, float(vim)):.1f}%, "
                f"BIM {-percent_change(ne, float(bim)):.1f}%"
            )
        return ExperimentResult(
            self.exp_id, self.title, columns, rows,
            paper_claim=self.paper_claim, notes=notes,
        )
