"""Figure 23: FPB combined with write cancellation / pausing / truncation.

WC, WP [20] and WT [10] are read-latency optimizations orthogonal to
power budgeting. Following Section 6.4.5, enabling WC grows the R/W
queues to 320 entries (40 per bank). Normalized to the (unmodified)
DIMM+chip baseline. The paper: the full stack reaches +175.8% over
DIMM+chip, a further 57% over FPB alone.
"""

from __future__ import annotations

from dataclasses import replace

from ..config.system import SchedulerConfig, SystemConfig
from .base import RunRequest, RunScale, Runs, SpeedupFigure

VARIANTS = ("FPB", "FPB+WC", "FPB+WC+WP", "FPB+WC+WP+WT")


def variant_config(config: SystemConfig, variant: str) -> SystemConfig:
    if variant == "FPB":
        return config
    scheduler = SchedulerConfig(
        read_queue_entries=320,
        write_queue_entries=320,
        resp_queue_entries=320,
        write_cancellation=True,
        write_pausing="WP" in variant,
        write_truncation="WT" in variant,
    )
    return replace(config, scheduler=scheduler)


class Fig23RdOpt(SpeedupFigure):
    exp_id = "fig23"
    title = "FPB with write cancellation, pausing and truncation"
    paper_claim = (
        "FPB+WC+WP+WT reaches +175.8% over DIMM+chip — 57% over FPB "
        "alone; the designs are orthogonal (Figure 23)."
    )
    schemes = VARIANTS

    def runs(self, config: SystemConfig, scale: RunScale) -> Runs:
        runs: Runs = {}
        for workload in scale.workloads:
            runs[workload, "dimm+chip"] = RunRequest(
                config, workload, "dimm+chip", scale)
            for variant in VARIANTS:
                runs[workload, variant] = RunRequest(
                    variant_config(config, variant), workload, "fpb", scale)
        return runs
