"""Token pools: DIMM pool and per-chip LCP accounting."""

import pytest

from repro.errors import BudgetExceededError, TokenError
from repro.pcm.chip import PCMChip
from repro.power.tokens import TokenPool


class TestTokenPool:
    def test_initial_apt(self):
        pool = TokenPool(560.0)
        assert pool.available == 560.0

    def test_allocate_release(self):
        pool = TokenPool(80.0)
        pool.allocate(50.0)
        assert pool.available == 30.0
        pool.release(50.0)
        assert pool.available == 80.0

    def test_over_allocation_rejected(self):
        pool = TokenPool(80.0)
        pool.allocate(50.0)
        with pytest.raises(BudgetExceededError):
            pool.allocate(40.0)

    def test_over_release_rejected(self):
        pool = TokenPool(80.0)
        pool.allocate(10.0)
        with pytest.raises(TokenError):
            pool.release(20.0)

    def test_negative_amounts_rejected(self):
        pool = TokenPool(80.0)
        with pytest.raises(TokenError):
            pool.allocate(-1.0)
        with pytest.raises(TokenError):
            pool.release(-1.0)

    def test_min_available_tracked(self):
        pool = TokenPool(80.0)
        pool.allocate(70.0)
        pool.release(70.0)
        assert pool.min_available == 10.0

    def test_peak_allocated_tracked(self):
        pool = TokenPool(80.0)
        pool.allocate(30.0)
        pool.allocate(30.0)
        pool.release(60.0)
        assert pool.peak_allocated == 60.0

    def test_mean_allocated_time_weighted(self):
        pool = TokenPool(100.0)
        pool.allocate(40.0, now=0)
        pool.release(40.0, now=10)
        assert pool.mean_allocated(20) == pytest.approx(20.0)

    def test_zero_budget_rejected(self):
        with pytest.raises(TokenError):
            TokenPool(0.0)

    def test_epsilon_tolerance(self):
        pool = TokenPool(1.0)
        pool.allocate(1.0 - 1e-12)
        assert pool.can_allocate(1e-12)


class TestPCMChip:
    def test_free_accounting(self):
        chip = PCMChip(0, 66.5)
        chip.allocate(30.0)
        assert chip.free == pytest.approx(36.5)

    def test_over_allocation_rejected(self):
        chip = PCMChip(0, 66.5)
        chip.allocate(60.0)
        with pytest.raises(TokenError):
            chip.allocate(10.0)

    def test_release_beyond_allocated_rejected(self):
        chip = PCMChip(0, 66.5)
        chip.allocate(5.0)
        with pytest.raises(TokenError):
            chip.release(6.0)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(TokenError):
            PCMChip(0, 0.0)
