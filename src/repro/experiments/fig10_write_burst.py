"""Figure 10: fraction of execution cycles spent in write bursts.

Measured on the baseline (DIMM+chip) configuration. The paper reports a
52.2% average across workloads — write throughput dominates execution,
which motivates FPB.
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


class Fig10WriteBurst(Experiment):
    exp_id = "fig10"
    title = "Fraction of cycles in write burst (baseline DIMM+chip)"
    paper_claim = (
        "Average 52.2% of execution cycles are spent in write bursts "
        "under the baseline (Figure 10)."
    )

    def runs(self, config: SystemConfig, scale: RunScale) -> Runs:
        return {workload: RunRequest(config, workload, "dimm+chip", scale)
                for workload in scale.workloads}

    def render(self, config: SystemConfig, scale: RunScale,
               results: Results) -> ExperimentResult:
        rows: List[Dict[str, object]] = []
        fractions: List[float] = []
        for workload in scale.workloads:
            result = results[workload]
            frac = result.stats.burst_fraction
            rows.append({
                "workload": workload,
                "burst_fraction": frac,
                "burst_entries": result.stats.burst_entries,
            })
            fractions.append(frac)
        rows.append({
            "workload": "mean",
            "burst_fraction": sum(fractions) / len(fractions),
            "burst_entries": "",
        })
        return ExperimentResult(
            self.exp_id, self.title,
            ["workload", "burst_fraction", "burst_entries"], rows,
            paper_claim=self.paper_claim,
        )
