"""Figure 15: BIM effectiveness as GCP efficiency decreases.

Speedup over DIMM+chip for astar, mcf and mix_1 with GCP-BIM as the
efficiency drops 0.7 -> 0.1. The paper: the benefit is preserved down to
very low efficiencies (mix_1 is still effective at 20%).
"""

from __future__ import annotations

from typing import Dict, List

from ..config.system import SystemConfig
from .base import (
    Experiment,
    ExperimentResult,
    Results,
    RunScale,
    Runs,
    speedup_runs,
)

EFFICIENCIES = (0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
WORKLOADS = ("ast_m", "mcf_m", "mix_1")


class Fig15BIMSweep(Experiment):
    exp_id = "fig15"
    title = "GCP-BIM speedup as GCP efficiency decreases"
    paper_claim = (
        "BIM preserves the GCP benefit at very low efficiencies; mix_1 "
        "remains effective down to 20% (Figure 15)."
    )

    @staticmethod
    def _workloads(scale: RunScale):
        return [w for w in WORKLOADS if w in scale.workloads] or list(
            scale.workloads[:2]
        )

    def runs(self, config: SystemConfig, scale: RunScale) -> Runs:
        return speedup_runs(
            config, scale, [f"gcp-bim-{eff}" for eff in EFFICIENCIES],
            baseline="dimm+chip", workloads=self._workloads(scale),
        )

    def render(self, config: SystemConfig, scale: RunScale,
               results: Results) -> ExperimentResult:
        workloads = self._workloads(scale)
        columns = ["efficiency", *workloads]
        rows: List[Dict[str, object]] = []
        for eff in EFFICIENCIES:
            row: Dict[str, object] = {"efficiency": eff}
            for workload in workloads:
                base = results[workload, "dimm+chip"]
                result = results[workload, f"gcp-bim-{eff}"]
                row[workload] = result.speedup_over(base)
            rows.append(row)
        return ExperimentResult(
            self.exp_id, self.title, columns, rows,
            paper_claim=self.paper_claim,
        )
