"""Ablations for the design choices DESIGN.md calls out.

These go beyond the paper's figures and quantify alternatives the text
discusses but does not plot:

* ``abl_mr`` — Multi-RESET grouping: position-based (the paper's pick:
  cheap hardware) vs changed-cell-based (Section 3.2's "tends to
  perform better") vs no Multi-RESET at all.
* ``abl_preread`` — FPB-IPM's pre-write read (Section 3.1): modeled
  cost vs a free oracle, bounding how much of FPB's gain the extra
  read eats.
* ``abl_fnw`` — Flip-N-Write [4] on MLC: cell-change reduction per data
  kind, checking the claim that it has "limited benefit for MLC PCM"
  compared to its SLC effectiveness (Section 7).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from ..config.system import SystemConfig
from ..pcm.cells import changed_cells
from ..pcm.flipnwrite import flip_savings_sample
from ..rng import make_rng
from ..trace.synthetic.data import LINE_KINDS, make_line_pair
from .base import (
    Experiment,
    ExperimentResult,
    Results,
    RunRequest,
    RunScale,
    Runs,
    SpeedupFigure,
)


class AblMRGrouping(SpeedupFigure):
    exp_id = "abl_mr"
    title = "Ablation: Multi-RESET grouping strategy"
    paper_claim = (
        "Section 3.2: grouping the cells to be changed performs better; "
        "position grouping is cheaper and is what the paper builds."
    )
    schemes = ("ipm", "fpb", "fpb-mrchanged")
    notes = ("ipm = no Multi-RESET; fpb = position groups; "
             "fpb-mrchanged = changed-cell groups.")


class AblPreRead(Experiment):
    exp_id = "abl_preread"
    title = "Ablation: cost of FPB-IPM's pre-write read"
    paper_claim = (
        "Section 3.1: the bridge reads the old line before each write; "
        "the paper models this cost. This ablation bounds it."
    )

    @staticmethod
    def _no_preread(config: SystemConfig) -> SystemConfig:
        return replace(
            config,
            scheduler=replace(config.scheduler, model_pre_write_read=False),
        )

    def runs(self, config: SystemConfig, scale: RunScale) -> Runs:
        no_preread = self._no_preread(config)
        runs: Runs = {}
        for workload in scale.workloads:
            runs[workload, "dimm+chip"] = RunRequest(
                config, workload, "dimm+chip", scale)
            runs[workload, "fpb"] = RunRequest(config, workload, "fpb", scale)
            runs[workload, "fpb-free-read"] = RunRequest(
                no_preread, workload, "fpb", scale)
        return runs

    def render(self, config: SystemConfig, scale: RunScale,
               results: Results) -> ExperimentResult:
        rows: List[Dict[str, object]] = []
        ratios: List[float] = []
        for workload in scale.workloads:
            base = results[workload, "dimm+chip"]
            row: Dict[str, object] = {"workload": workload}
            for column in ("fpb", "fpb-free-read"):
                row[column] = results[workload, column].speedup_over(base)
            row["overhead_%"] = 100.0 * (
                float(row["fpb-free-read"]) / max(1e-9, float(row["fpb"])) - 1.0
            )
            rows.append(row)
            ratios.append(float(row["overhead_%"]))
        rows.append({
            "workload": "mean",
            "overhead_%": sum(ratios) / max(1, len(ratios)),
        })
        return ExperimentResult(
            self.exp_id, self.title,
            ["workload", "fpb", "fpb-free-read", "overhead_%"], rows,
            paper_claim=self.paper_claim,
        )


class AblFlipNWrite(Experiment):
    exp_id = "abl_fnw"
    title = "Ablation: Flip-N-Write benefit on 2-bit MLC"
    paper_claim = (
        "Section 7: Flip-N-Write 'has limited benefit for MLC PCM due "
        "to the additional states' — MLC savings are small compared to "
        "the ~halved worst case it provides for SLC."
    )

    def render(self, config: SystemConfig, scale: RunScale,
               results: Results) -> ExperimentResult:
        rng = make_rng(config.seed, "fnw")
        line_size = config.memory.line_size
        n_lines = min(400, max(50, scale.n_pcm_writes))
        rows: List[Dict[str, object]] = []
        for kind in LINE_KINDS:
            old, new = make_line_pair(kind, rng, n_lines, line_size)
            plain, encoded = flip_savings_sample(old, new)
            # SLC reference: bit flips with/without per-block inversion.
            slc_plain = sum(
                changed_cells(old[i], new[i], 1).size for i in range(n_lines)
            ) / n_lines
            rows.append({
                "data_kind": kind,
                "mlc_plain": plain,
                "mlc_flipnwrite": encoded,
                "mlc_saving_%": 100.0 * (1 - encoded / max(1e-9, plain)),
                "slc_bit_flips": slc_plain,
            })
        return ExperimentResult(
            self.exp_id, self.title,
            ["data_kind", "mlc_plain", "mlc_flipnwrite", "mlc_saving_%",
             "slc_bit_flips"],
            rows,
            paper_claim=self.paper_claim,
        )


class AblPreSET(SpeedupFigure):
    exp_id = "abl_preset"
    title = "Ablation: PreSET-style writes under power budgets"
    paper_claim = (
        "Section 7: applying PreSET [22] to MLC means single-RESET "
        "writes that are fast but 'tend to increase the demand for "
        "power tokens' — a win without budgets, a loss with them."
    )
    schemes = ("ideal", "ideal+preset", "fpb", "fpb+preset")
    notes = ("preset = foreground writes are single-RESET pulses over "
             "~75% of the line's cells (background SETs modeled free).")

    @staticmethod
    def _preset_config(config: SystemConfig) -> SystemConfig:
        return replace(
            config,
            scheduler=replace(config.scheduler, preset_writes=True),
        )

    def runs(self, config: SystemConfig, scale: RunScale) -> Runs:
        preset_cfg = self._preset_config(config)
        runs: Runs = {}
        for workload in scale.workloads:
            runs[workload, "dimm+chip"] = RunRequest(
                config, workload, "dimm+chip", scale)
            for cfg, suffix in ((config, ""), (preset_cfg, "+preset")):
                for scheme in ("ideal", "fpb"):
                    runs[workload, scheme + suffix] = RunRequest(
                        cfg, workload, scheme, scale)
        return runs
