"""Figure 8: scheduling writes with the global charge pump.

Three chips with a 4-token budget each and a 4-token GCP. WR-A is in
flight using 2/2/4 tokens. WR-B needs 2/3/0: chip 1 has only 2 free, so
its segment is powered by the GCP (whole segment — "one segment uses
either LCP or GCP, but not both") and WR-B proceeds. WR-C needs 0/2/3:
chip 2 has nothing free and after WR-B the GCP holds only 1 token, so
WR-C cannot be served concurrently.

Every scenario runs on both kernels.
"""

import numpy as np
import pytest

from repro.config.system import (
    CacheConfig,
    CacheLevelConfig,
    CPUConfig,
    MemoryConfig,
    PCMConfig,
    PowerConfig,
    SystemConfig,
)
from repro.core.policies.base import PowerManager, SRC_GCP, SRC_LCP
from repro.core.write_op import WriteOperation
from repro.pcm.dimm import DIMM


def make_config(kernel: str) -> SystemConfig:
    """Three chips, 4 usable tokens each, GCP of 4 tokens, perfect
    efficiencies. Figure 8 illustrates the *chip-level* budgets only, so
    the DIMM budget is left unconstraining."""
    return SystemConfig(
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
        # chip_budget_scale shrinks the per-chip LCPs to the example's 4
        # tokens while the DIMM input budget stays unconstraining.
        power=PowerConfig(
            dimm_tokens=100.0, lcp_efficiency=1.0, gcp_efficiency=1.0,
            gcp_max_output_tokens=4.0, chip_budget_scale=0.12,
        ),
        cell_mapping="naive",
        kernel=kernel,
    )


def write_with_chip_demand(write_id, manager, bank, demand):
    """A write changing exactly ``demand[c]`` cells in each chip,
    planned on the manager's kernel."""
    dimm = manager.dimm
    cells_per_chip = dimm.cells_per_line // dimm.n_chips
    idx = []
    for chip, count in enumerate(demand):
        start = chip * cells_per_chip
        idx.extend(range(start, start + count))
    idx = np.array(idx, dtype=np.int64)
    counts = np.full(idx.size, 2, dtype=np.int64)
    return WriteOperation(write_id, 0, bank, idx, counts, dimm.mapping,
                          kernel=manager.kernel)


def free_tokens(manager):
    """Each chip's LCP budget minus what the manager has allocated on
    it (the vectorized kernel keeps balances in its ledger, not on the
    chips)."""
    return [chip.budget - float(allocated) for chip, allocated
            in zip(manager.dimm.chips, manager.chip_allocations())]


class GcpRecorder:
    """Stands in for telemetry: records each GCP borrow the manager
    reports."""

    def __init__(self):
        self.borrows = []

    def on_gcp_acquire(self, write, tokens, now):
        self.borrows.append((write.write_id, tokens, now))


def systems():
    """A fresh (DIMM, manager) pair on each kernel."""
    for kernel in ("reference", "vectorized"):
        config = make_config(kernel)
        dimm = DIMM(config)
        yield dimm, PowerManager(
            config, dimm, enforce_dimm=True, enforce_chip=True,
            gcp_enabled=True,
        )


def test_chip_budgets():
    for dimm, manager in systems():
        assert [chip.budget for chip in dimm.chips] == [4.0, 4.0, 4.0]
        assert manager.gcp is not None
        assert manager.gcp.max_output_tokens == 4.0


def test_figure8_schedule():
    for dimm, manager in systems():
        manager.obs = recorder = GcpRecorder()
        wr_a = write_with_chip_demand(1, manager, 0, [2, 2, 4])
        wr_b = write_with_chip_demand(2, manager, 1, [2, 3, 0])
        wr_c = write_with_chip_demand(3, manager, 2, [0, 2, 3])

        # WR-A is being served entirely from local pumps.
        assert manager.try_issue(wr_a, 0)
        holding_a = manager.holding_for(wr_a)
        assert (holding_a.sources[:3] == [SRC_LCP, SRC_LCP, SRC_LCP]).all()
        assert free_tokens(manager) == [2.0, 2.0, 0.0]

        # WR-B: chip 1 needs 3 > 2 free -> that one segment moves to the GCP.
        assert manager.try_issue(wr_b, 0)
        holding_b = manager.holding_for(wr_b)
        assert holding_b.sources[0] == SRC_LCP
        assert holding_b.sources[1] == SRC_GCP
        assert manager.gcp.output_in_use == pytest.approx(3.0)
        assert wr_b.gcp_peak_tokens == pytest.approx(3.0)
        assert recorder.borrows == [(2, 3.0, 0)]

        # WR-C: chip 2 has no free tokens and the GCP holds only 1 -> blocked.
        assert not manager.try_issue(wr_c, 0)
        assert manager.fail_counts["gcp"] >= 1

        # Once WR-A finishes, WR-C can be served (locally on chip 1, GCP or
        # LCP on chip 2 as capacity allows).
        for i in range(wr_a.total_iterations):
            outcome = manager.on_iteration_end(wr_a, i, i + 1)
        assert outcome == "done"
        assert manager.try_issue(wr_c, 10)
        manager.assert_conserved()


def test_segment_never_splits_across_sources():
    """'One segment uses either LCP or GCP, but not both' (Section 4.1)."""
    for dimm, manager in systems():
        wr = write_with_chip_demand(1, manager, 0, [3, 3, 3])
        assert manager.try_issue(wr, 0)
        holding = manager.holding_for(wr)
        for chip in range(3):
            local = holding.chip[chip] > 0
            pumped = chip in holding.grants
            assert not (local and pumped)


def test_gcp_grant_released_on_completion():
    for dimm, manager in systems():
        wr_a = write_with_chip_demand(1, manager, 0, [2, 2, 4])
        wr_b = write_with_chip_demand(2, manager, 1, [2, 3, 0])
        assert manager.try_issue(wr_a, 0)
        assert manager.try_issue(wr_b, 0)
        for write in (wr_b,):
            for i in range(write.total_iterations):
                outcome = manager.on_iteration_end(write, i, i + 1)
            assert outcome == "done"
        assert manager.gcp.output_in_use == pytest.approx(0.0)
