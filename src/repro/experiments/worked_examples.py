"""The paper's worked-example figures (3, 5, 6, 8) as experiments.

These aren't evaluation results — they are the illustrative scenarios
the paper uses to explain the mechanisms — but they make great runnable
artifacts: each drives the *real* power-manager code through the
figure's setup and emits the paper's token tables. The same scenarios
are locked down exactly in ``tests/paper/``.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..config.system import (
    CacheConfig,
    CacheLevelConfig,
    CPUConfig,
    MemoryConfig,
    PCMConfig,
    PowerConfig,
    SystemConfig,
)
from ..core.policies.base import PowerManager, SRC_GCP, SRC_LCP
from ..core.write_op import WriteOperation
from ..pcm.dimm import DIMM
from .base import Experiment, ExperimentResult, Results, RunScale


def _figure5_system() -> "tuple[SystemConfig, DIMM]":
    """The Figure 5/6 idealized setting: C = 2, 80 tokens, E = 1."""
    config = SystemConfig(
        cpu=CPUConfig(cores=1),
        caches=CacheConfig(
            l1=CacheLevelConfig(16 * 1024, 4, 64, 2),
            l2=CacheLevelConfig(64 * 1024, 4, 64, 7),
            l3=CacheLevelConfig(1024 * 1024, 8, 256, 200),
        ),
        pcm=PCMConfig(reset_power_uw=100.0, set_power_uw=50.0),
        power=PowerConfig(dimm_tokens=80.0, lcp_efficiency=1.0),
    )
    return config, DIMM(config)


def _write(dimm: DIMM, write_id: int, bank: int,
           iteration_counts: List[int]) -> WriteOperation:
    idx = np.linspace(
        0, dimm.cells_per_line - 1, len(iteration_counts)
    ).astype(np.int64)
    return WriteOperation(
        write_id, 0, bank, np.unique(idx),
        np.asarray(iteration_counts), dimm.mapping,
    )


WR_A_COUNTS = [1] * 2 + [2] * 22 + [3] * 14 + [4] * 12   # actives 50/48/26/12
WR_B_COUNTS = [1] * 4 + [2] * 16 + [3] * 8 + [4] * 8 + [5] * 4  # 40/36/20/12/4


class Fig05IPMExample(Experiment):
    exp_id = "fig5"
    title = "Worked example: FPB-IPM token trace (Figure 5b)"
    paper_claim = (
        "APT trace 80,30,15,35,36,38,49,57,70,74 with WR-A (50 cells) "
        "and WR-B (40 cells) overlapping under IPM."
    )

    def render(self, config: SystemConfig, scale: RunScale,
               results: Results) -> ExperimentResult:
        cfg, dimm = _figure5_system()
        manager = PowerManager(
            cfg, dimm, enforce_dimm=True, enforce_chip=False, ipm=True,
        )
        wr_a = _write(dimm, 1, 0, WR_A_COUNTS)
        wr_b = _write(dimm, 2, 1, WR_B_COUNTS)
        pool = manager.dimm_pool
        rows: List[Dict[str, object]] = [
            {"time": 0, "event": "initial", "APT": pool.available},
        ]

        def log(t, event):
            rows.append({"time": t, "event": event, "APT": pool.available})

        manager.try_issue(wr_a, 0)
        log(0, "WR-A RESET (50 tokens)")
        manager.on_iteration_end(wr_a, 0, 1)
        manager.try_issue(wr_b, 1)
        log(1, "WR-A reclaims to 25; WR-B RESET (40)")
        # (write, iteration-ending, label) in the figure's time order.
        steps = [
            (wr_b, 0, "WR-B reclaims to 20"),
            (wr_a, 1, "WR-A SET2 (24 = 48/2)"),
            (wr_b, 1, "WR-B SET2 (18 = 36/2)"),
            (wr_a, 2, "WR-A SET3 (13 = 26/2)"),
            (wr_b, 2, "WR-B SET3 (10 = 20/2)"),
            (wr_a, 3, "WR-A completes"),
            (wr_b, 3, "WR-B SET4 (6 = 12/2)"),
            (wr_b, 4, "WR-B completes"),
        ]
        for t, (write, i, label) in enumerate(steps, start=2):
            manager.on_iteration_end(write, i, t)
            log(t, label)
        return ExperimentResult(
            self.exp_id, self.title, ["time", "event", "APT"], rows,
            paper_claim=self.paper_claim,
        )


class Fig06MultiResetExample(Experiment):
    exp_id = "fig6"
    title = "Worked example: Multi-RESET lowers peak demand (Figure 6)"
    paper_claim = (
        "Without Multi-RESET a 60-cell WR-B waits for tokens; with it "
        "the RESET splits into 30-cell groups and overlaps WR-A."
    )

    def render(self, config: SystemConfig, scale: RunScale,
               results: Results) -> ExperimentResult:
        rows: List[Dict[str, object]] = []
        for use_mr in (False, True):
            cfg, dimm = _figure5_system()
            manager = PowerManager(
                cfg, dimm, enforce_dimm=True, enforce_chip=False, ipm=True,
                mr_splits=2 if use_mr else 1,
            )
            wr_a = _write(dimm, 1, 0, WR_A_COUNTS)
            wr_b = _write(dimm, 2, 1, [2] * 36 + [3] * 16 + [4] * 8)
            manager.try_issue(wr_a, 0)
            issued = manager.try_issue(wr_b, 0)
            rows.append({
                "scheme": "IPM+MR(2)" if use_mr else "IPM",
                "WR-B issues at t=0": issued,
                "WR-B RESET groups": wr_b.mr_splits,
                "peak group tokens": float(wr_b.group_totals.max()),
                "APT after issue": manager.dimm_pool.available,
            })
        return ExperimentResult(
            self.exp_id, self.title,
            ["scheme", "WR-B issues at t=0", "WR-B RESET groups",
             "peak group tokens", "APT after issue"],
            rows, paper_claim=self.paper_claim,
        )


def _figure8_system() -> "tuple[SystemConfig, DIMM, PowerManager]":
    config = SystemConfig(
        cpu=CPUConfig(cores=1),
        caches=CacheConfig(
            l1=CacheLevelConfig(16 * 1024, 4, 64, 2),
            l2=CacheLevelConfig(64 * 1024, 4, 64, 7),
            l3=CacheLevelConfig(192 * 1024, 8, 96, 200),
        ),
        pcm=PCMConfig(reset_power_uw=100.0, set_power_uw=50.0),
        memory=MemoryConfig(
            capacity_bytes=1 << 20, n_chips=3, n_banks=3, line_size=96,
        ),
        power=PowerConfig(
            dimm_tokens=100.0, lcp_efficiency=1.0, gcp_efficiency=1.0,
            gcp_max_output_tokens=4.0, chip_budget_scale=0.12,
        ),
    )
    dimm = DIMM(config)
    manager = PowerManager(
        config, dimm, enforce_dimm=True, enforce_chip=True, gcp_enabled=True,
    )
    return config, dimm, manager


def _chip_demand_write(dimm: DIMM, write_id: int, bank: int,
                       demand: List[int]) -> WriteOperation:
    cells_per_chip = dimm.cells_per_line // dimm.n_chips
    idx: List[int] = []
    for chip, count in enumerate(demand):
        start = chip * cells_per_chip
        idx.extend(range(start, start + count))
    arr = np.array(idx, dtype=np.int64)
    return WriteOperation(
        write_id, 0, bank, arr, np.full(arr.size, 2, np.int64), dimm.mapping,
    )


class Fig03ChipBlockingExample(Experiment):
    exp_id = "fig3"
    title = "Worked example: a hot chip blocks writes (Figure 3)"
    paper_claim = (
        "WR-A (4 changes) and WR-B (5 changes) fit the 12-change DIMM "
        "budget but WR-B exceeds chip 1's budget and must wait."
    )

    def render(self, config: SystemConfig, scale: RunScale,
               results: Results) -> ExperimentResult:
        _, dimm, manager = _figure8_system()
        manager.gcp = None  # Figure 3 has no GCP yet
        manager.gcp_enabled = False
        wr_a = _chip_demand_write(dimm, 1, 0, [1, 2, 1])
        wr_b = _chip_demand_write(dimm, 2, 1, [1, 3, 1])
        a_ok = manager.try_issue(wr_a, 0)
        b_ok = manager.try_issue(wr_b, 0)
        rows = [
            {"write": "WR-A (1/2/1 per chip)", "issues": a_ok,
             "reason": "fits all chip budgets"},
            {"write": "WR-B (1/3/1 per chip)", "issues": b_ok,
             "reason": "chip 1 needs 3 but only 2 tokens remain"},
        ]
        return ExperimentResult(
            self.exp_id, self.title, ["write", "issues", "reason"], rows,
            paper_claim=self.paper_claim,
        )


class Fig08GCPExample(Experiment):
    exp_id = "fig8"
    title = "Worked example: GCP serves the hot segment (Figure 8)"
    paper_claim = (
        "WR-B's chip-1 segment rides the GCP so it issues alongside "
        "WR-A; WR-C still waits because the GCP is exhausted."
    )

    def render(self, config: SystemConfig, scale: RunScale,
               results: Results) -> ExperimentResult:
        _, dimm, manager = _figure8_system()
        wr_a = _chip_demand_write(dimm, 1, 0, [2, 2, 4])
        wr_b = _chip_demand_write(dimm, 2, 1, [2, 3, 0])
        wr_c = _chip_demand_write(dimm, 3, 2, [0, 2, 3])
        rows: List[Dict[str, object]] = []
        for name, write in (("WR-A", wr_a), ("WR-B", wr_b), ("WR-C", wr_c)):
            issued = manager.try_issue(write, 0)
            holding = manager.holding_for(write)
            sources = []
            if holding is not None and issued:
                for chip in range(dimm.n_chips):
                    if holding.sources[chip] == SRC_LCP:
                        sources.append(f"chip{chip}:LCP")
                    elif holding.sources[chip] == SRC_GCP:
                        sources.append(f"chip{chip}:GCP")
            rows.append({
                "write": name,
                "issues": issued,
                "segment sources": " ".join(sources) or "-",
                "GCP in use": manager.gcp.output_in_use,
            })
        return ExperimentResult(
            self.exp_id, self.title,
            ["write", "issues", "segment sources", "GCP in use"], rows,
            paper_claim=self.paper_claim,
        )
