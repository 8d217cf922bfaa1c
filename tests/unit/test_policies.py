"""Power-manager mechanics beyond the paper examples."""

import numpy as np
import pytest

from repro.core.policies.base import PowerManager
from repro.core.write_op import WriteOperation
from repro.pcm.dimm import DIMM

from ..conftest import make_figure5_config, make_tiny_config


def spread_write(write_id, dimm, n_cells, count=2):
    idx = np.linspace(0, dimm.cells_per_line - 1, n_cells).astype(np.int64)
    return WriteOperation(
        write_id, 0, 0, np.unique(idx),
        np.full(np.unique(idx).size, count, dtype=np.int64), dimm.mapping,
    )


class TestIdeal:
    def test_never_blocks(self):
        config = make_tiny_config()
        dimm = DIMM(config)
        manager = PowerManager(
            config, dimm, enforce_dimm=False, enforce_chip=False,
        )
        for wid in range(50):
            w = spread_write(wid, dimm, 900)
            assert manager.try_issue(w, 0)


class TestDimmOnly:
    def test_budget_in_input_power(self):
        """A usable token costs 1/E_LCP of the DIMM input budget."""
        config = make_tiny_config()
        dimm = DIMM(config)
        manager = PowerManager(
            config, dimm, enforce_dimm=True, enforce_chip=False,
        )
        w = spread_write(1, dimm, 500)
        assert manager.try_issue(w, 0)
        expected = w.n_changed / config.power.lcp_efficiency
        assert manager.dimm_pool.allocated == pytest.approx(expected)

    def test_release_on_done(self):
        config = make_figure5_config()
        dimm = DIMM(config)
        manager = PowerManager(
            config, dimm, enforce_dimm=True, enforce_chip=False,
        )
        w = spread_write(1, dimm, 40)
        assert manager.try_issue(w, 0)
        assert manager.on_iteration_end(w, 0, 1) == "advance"
        # Per-write budgeting keeps the full allocation until completion.
        assert manager.dimm_pool.available == pytest.approx(40.0)
        assert manager.on_iteration_end(w, 1, 2) == "done"
        assert manager.dimm_pool.available == pytest.approx(80.0)


class TestChipEnforcement:
    def test_hot_chip_blocks_without_gcp(self):
        config = make_tiny_config()
        dimm = DIMM(config)
        manager = PowerManager(
            config, dimm, enforce_dimm=True, enforce_chip=True,
        )
        # All changes on chip 0 (naive: cells 0..127).
        idx = np.arange(60)
        w1 = WriteOperation(1, 0, 0, idx, np.full(60, 2), dimm.mapping)
        w2 = WriteOperation(2, 0, 1, idx, np.full(60, 2), dimm.mapping)
        assert manager.try_issue(w1, 0)
        assert not manager.try_issue(w2, 0)  # 120 > 66.5 on chip 0
        assert manager.fail_counts["chip"] == 1

    @pytest.mark.parametrize("kernel", ["reference", "vectorized"])
    def test_blocked_retry_skips_the_plan_until_a_release(
        self, kernel, monkeypatch
    ):
        """Retrying a blocked write before any pool changes counts the
        same failure again without evaluating its plan."""
        config = make_tiny_config().with_kernel(kernel)
        dimm = DIMM(config)
        manager = PowerManager(
            config, dimm, enforce_dimm=True, enforce_chip=True,
        )
        idx = np.arange(60)
        w1 = WriteOperation(1, 0, 0, idx, np.full(60, 2), dimm.mapping)
        w2 = WriteOperation(2, 0, 1, idx, np.full(60, 2), dimm.mapping)
        assert manager.try_issue(w1, 0)
        acquire = manager._try_acquire
        plans = []

        def counting_acquire(write, i, now):
            plans.append(write.write_id)
            return acquire(write, i, now)

        monkeypatch.setattr(manager, "_try_acquire", counting_acquire)
        for t in range(1, 101):
            assert not manager.try_issue(w2, t)
        assert plans == [2]
        assert manager.fail_counts == {"dimm": 0, "chip": 100, "gcp": 0}
        manager.release_all(w1, 101)
        assert manager.try_issue(w2, 102)
        assert plans == [2, 2]
        manager.assert_conserved()

    @pytest.mark.parametrize("kernel", ["reference", "vectorized"])
    def test_one_cell_write_never_splits(self, kernel):
        """Multi-RESET cannot split a one-cell RESET: a blocked one-cell
        write is retried without a re-plan and fails once per retry."""
        config = make_tiny_config().with_kernel(kernel)
        dimm = DIMM(config)
        manager = PowerManager(
            config, dimm, enforce_dimm=True, enforce_chip=True, ipm=True,
            mr_splits=3,
        )
        splits = []

        class SplitRecorder:
            def on_mr_split(self, write, now):
                splits.append(write.write_id)

        manager.obs = SplitRecorder()
        fill = int(dimm.chips[0].budget)  # chip 0 keeps < 1 token free
        full = WriteOperation(
            1, 0, 0, np.arange(fill), np.full(fill, 2), dimm.mapping,
        )
        one = WriteOperation(2, 0, 1, np.array([fill]), np.array([2]),
                             dimm.mapping)
        assert manager.try_issue(full, 0)
        for t in range(1, 6):
            assert not manager.try_issue(one, t)
        assert splits == []
        assert one.mr_splits == 1
        assert manager.fail_counts["chip"] == 5

    def test_gcp_unblocks_hot_chip(self):
        config = make_tiny_config()
        dimm = DIMM(config)
        manager = PowerManager(
            config, dimm, enforce_dimm=True, enforce_chip=True,
            gcp_enabled=True,
        )
        idx = np.arange(40)
        w1 = WriteOperation(1, 0, 0, idx, np.full(40, 2), dimm.mapping)
        w2 = WriteOperation(2, 0, 1, idx, np.full(40, 2), dimm.mapping)
        assert manager.try_issue(w1, 0)
        assert manager.try_issue(w2, 0)  # second segment rides the GCP
        assert manager.gcp.output_in_use == pytest.approx(40.0)


class TestStallResume:
    def test_stall_holds_nothing(self):
        """A write that cannot afford its next iteration stalls holding
        zero tokens (a stalled write applies no pulses)."""
        config = make_figure5_config()
        dimm = DIMM(config)
        manager = PowerManager(
            config, dimm, enforce_dimm=True, enforce_chip=False, ipm=True,
            mr_splits=2,
        )
        # w1 fits whole (70 <= 80). w2's cells all sit in the *second*
        # position-group of chip 0, so after Multi-RESET its group 1 is
        # empty (0 tokens) and group 2 needs all 40 — which exceeds the
        # 10 remaining tokens at the boundary.
        w1 = spread_write(1, dimm, 70)
        idx = np.arange(64, 104)
        w2 = WriteOperation(
            2, 0, 1, idx, np.full(idx.size, 2), dimm.mapping, mr_splits=2,
        )
        assert w2.group_totals.tolist() == [0, 40]
        assert manager.try_issue(w1, 0)   # RESET: 70 tokens
        assert manager.try_issue(w2, 0)   # empty group 1: 0 tokens
        outcome = manager.on_iteration_end(w2, 0, 1)
        assert outcome == "stall"
        # The stalled write holds nothing.
        holding = manager.holding_for(w2)
        assert holding.dimm == 0.0

    def test_resume_after_release(self):
        config = make_figure5_config()
        dimm = DIMM(config)
        manager = PowerManager(
            config, dimm, enforce_dimm=True, enforce_chip=False, ipm=True,
        )
        w1 = spread_write(1, dimm, 70)
        w2 = spread_write(2, dimm, 40)
        assert manager.try_issue(w1, 0)
        assert not manager.try_issue(w2, 0)   # 40 > 10 available
        assert manager.on_iteration_end(w1, 0, 1) == "advance"  # 70 -> 35
        w2.current_iteration = 0
        assert manager.try_resume(w2, 1)      # 40 <= 45 now

    @pytest.mark.parametrize("kernel", ["reference", "vectorized"])
    def test_stalled_write_retried_at_once_is_rerouted(self, kernel):
        """A stall keeps the write's sources, so its first resume is
        evaluated in full even though no pool changed since: it fails
        with the kept sources, re-routes and fails again. Later retries
        repeat the re-routed failure without re-planning."""
        config = make_tiny_config().with_kernel(kernel)
        dimm = DIMM(config)
        manager = PowerManager(
            config, dimm, enforce_dimm=True, enforce_chip=True, ipm=True,
            mr_splits=2,
        )
        # RESET group 0 is 5 cells on chip 1, group 1 is 40 on chip 0.
        idx = np.concatenate([np.arange(64, 104), np.arange(128, 133)])
        split = WriteOperation(
            2, 0, 1, idx, np.full(idx.size, 2), dimm.mapping, mr_splits=2,
        )
        hog = WriteOperation(1, 0, 0, np.arange(60), np.full(60, 2),
                             dimm.mapping)
        assert manager.try_issue(split, 0)
        assert manager.try_issue(hog, 0)    # chip 0 keeps 6.5 tokens
        assert manager.on_iteration_end(split, 0, 1) == "stall"
        assert manager.holding_for(split).sources.any()
        split.current_iteration = 1
        assert not manager.try_resume(split, 1)
        assert manager.fail_counts["chip"] == 3
        assert not manager.holding_for(split).sources.any()
        for t in range(2, 5):
            assert not manager.try_resume(split, t)
        assert manager.fail_counts["chip"] == 6
        manager.release_all(hog, 5)
        assert manager.try_resume(split, 6)
        manager.assert_conserved()

    def test_required_rounds_per_write(self):
        config = make_figure5_config()  # 80-token budget
        dimm = DIMM(config)
        manager = PowerManager(
            config, dimm, enforce_dimm=True, enforce_chip=False,
        )
        small = spread_write(1, dimm, 50)
        large = spread_write(2, dimm, 200)
        assert manager.required_rounds(small) == 1
        assert manager.required_rounds(large) == 3  # ceil(200/80)

    def test_required_rounds_with_multireset(self):
        config = make_figure5_config()
        dimm = DIMM(config)
        manager = PowerManager(
            config, dimm, enforce_dimm=True, enforce_chip=False, ipm=True,
            mr_splits=3,
        )
        large = spread_write(1, dimm, 200)
        # 3 RESET groups of ~67 <= 80 -> one round suffices.
        assert manager.required_rounds(large) == 1


class TestPWL:
    def test_offsets_rotate_over_writes(self):
        config = make_tiny_config()
        dimm = DIMM(config)
        manager = PowerManager(
            config, dimm, enforce_dimm=True, enforce_chip=True, pwl=True,
        )
        offsets = {manager.line_offset(4096) for _ in range(400)}
        assert len(offsets) > 1  # re-randomized every 8..100 writes

    def test_disabled_by_default(self):
        config = make_tiny_config()
        dimm = DIMM(config)
        manager = PowerManager(config, dimm)
        assert manager.line_offset(4096) == 0


class TestRequiredRoundsUnits:
    def test_input_power_units_regression(self):
        """A write of 532 < n <= 560 cells fits the 560-token budget in
        usable-token terms but not in input-power terms (n / E_LCP);
        required_rounds must split it or the queue head deadlocks."""
        from ..conftest import make_tiny_config
        config = make_tiny_config()  # E_LCP = 0.95, budget 560
        dimm = DIMM(config)
        manager = PowerManager(
            config, dimm, enforce_dimm=True, enforce_chip=False,
        )
        w = spread_write(1, dimm, 550)
        rounds = manager.required_rounds(w)
        assert rounds >= 2
        # And a compliant write must be issuable when alone.
        ok = spread_write(2, dimm, 530)
        assert manager.required_rounds(ok) == 1
        assert manager.try_issue(ok, 0)
