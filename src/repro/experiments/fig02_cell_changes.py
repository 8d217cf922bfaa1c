"""Figure 2: average cell changes per PCM line write.

The paper reports, per workload, the mean number of cells changed per
line write for 64/128/256-byte lines, in both 2-bit MLC and SLC cell
organisations. Two claims must reproduce: (i) MLC changes fewer cells
than SLC flips bits, and (ii) larger lines change more cells.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.metrics import gmean
from ..config.presets import LINE_SIZE_SWEEP
from ..config.system import SystemConfig
from .base import Experiment, ExperimentResult, Results, RunScale, trace_for


class Fig02CellChanges(Experiment):
    exp_id = "fig2"
    title = "Cell changes per line write (MLC vs SLC, line-size sweep)"
    paper_claim = (
        "2-bit MLC changes fewer cells than SLC flips bits; larger lines "
        "change more cells (Figure 2)."
    )

    def render(self, config: SystemConfig, scale: RunScale,
               results: Results) -> ExperimentResult:
        columns = ["workload"]
        for line in LINE_SIZE_SWEEP:
            columns += [f"{line}B-mlc", f"{line}B-slc"]
        rows: List[Dict[str, object]] = []
        sums: Dict[str, List[float]] = {c: [] for c in columns[1:]}
        for workload in scale.workloads:
            row: Dict[str, object] = {"workload": workload}
            for line in LINE_SIZE_SWEEP:
                trace = trace_for(config.with_line_size(line), workload, scale)
                mlc = trace.stats.mean_cells_changed
                slc = trace.stats.mean_slc_bit_changes
                row[f"{line}B-mlc"] = mlc
                row[f"{line}B-slc"] = slc
                sums[f"{line}B-mlc"].append(max(mlc, 1e-9))
                sums[f"{line}B-slc"].append(max(slc, 1e-9))
            rows.append(row)
        gmean_row: Dict[str, object] = {"workload": "gmean"}
        for col, values in sums.items():
            gmean_row[col] = gmean(values)
        rows.append(gmean_row)
        return ExperimentResult(
            self.exp_id, self.title, columns, rows,
            paper_claim=self.paper_claim,
        )
