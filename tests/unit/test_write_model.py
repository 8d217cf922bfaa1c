"""Non-deterministic P&V iteration model."""

import numpy as np
import pytest

from repro.config.system import PCMConfig
from repro.errors import ConfigError
from repro.kernel import available_kernels
from repro.pcm.write_model import (
    IterationSampler,
    active_cells_per_chip_iteration,
    active_cells_per_iteration,
)
from repro.rng import make_rng


@pytest.fixture
def sampler():
    return IterationSampler(PCMConfig())


class TestIterationSampler:
    def test_level00_always_one_iteration(self, sampler):
        rng = make_rng(1, "t")
        counts = sampler.sample(np.zeros(500, dtype=np.uint8), rng)
        assert (counts == 1).all()

    def test_level11_always_two_iterations(self, sampler):
        rng = make_rng(1, "t")
        counts = sampler.sample(np.full(500, 3, dtype=np.uint8), rng)
        assert (counts == 2).all()

    def test_level01_mean_near_eight(self, sampler):
        rng = make_rng(1, "t")
        counts = sampler.sample(np.full(20_000, 1, dtype=np.uint8), rng)
        assert 6.0 < counts.mean() < 9.0

    def test_level10_mean_near_six(self, sampler):
        rng = make_rng(1, "t")
        counts = sampler.sample(np.full(20_000, 2, dtype=np.uint8), rng)
        assert 4.5 < counts.mean() < 7.0

    def test_level10_faster_than_level01(self, sampler):
        rng = make_rng(1, "t")
        c01 = sampler.sample(np.full(20_000, 1, dtype=np.uint8), rng).mean()
        c10 = sampler.sample(np.full(20_000, 2, dtype=np.uint8), rng).mean()
        assert c10 < c01

    def test_bounds_respected(self, sampler):
        rng = make_rng(2, "t")
        counts = sampler.sample(np.full(20_000, 1, dtype=np.uint8), rng)
        assert counts.min() >= 1
        assert counts.max() <= sampler.max_iterations

    def test_most_cells_finish_early(self, sampler):
        """Section 2.1.1: 'most cells finish in only a small number of
        iterations' — the property FPB-IPM exploits."""
        rng = make_rng(3, "t")
        counts = sampler.sample(np.full(20_000, 1, dtype=np.uint8), rng)
        assert (counts <= 2).mean() >= 0.3

    def test_empty_input(self, sampler):
        rng = make_rng(1, "t")
        assert sampler.sample(np.zeros(0, dtype=np.uint8), rng).size == 0

    def test_unknown_level_rejected(self):
        for kernel in available_kernels():
            sampler = IterationSampler(PCMConfig(), kernel=kernel)
            with pytest.raises(ConfigError):
                sampler.sample(np.array([9], dtype=np.uint8),
                               make_rng(1, "t"))


class TestActiveCells:
    def test_doc_example(self):
        active = active_cells_per_iteration([1, 2, 2, 4], 4)
        assert active.tolist() == [4, 3, 1, 1]

    def test_first_entry_is_total(self):
        active = active_cells_per_iteration([3, 5, 1, 2, 2], 8)
        assert active[0] == 5

    def test_monotone_nonincreasing(self):
        active = active_cells_per_iteration([1, 3, 7, 7, 2, 5], 8)
        assert (np.diff(active) <= 0).all()

    def test_length_is_max_count(self):
        active = active_cells_per_iteration([2, 4], 8)
        assert active.size == 4

    def test_empty(self):
        assert active_cells_per_iteration([], 8).size == 0

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigError):
            active_cells_per_iteration([0, 1], 4)

    def test_figure5_wr_a_profile(self):
        """WR-A of Figure 5: 50 cells with actives 50/48/26/12."""
        counts = [1] * 2 + [2] * 22 + [3] * 14 + [4] * 12
        active = active_cells_per_iteration(counts, 16)
        assert active.tolist() == [50, 48, 26, 12]


class TestActivePerChip:
    def test_rows_sum_to_totals(self):
        rng = np.random.default_rng(4)
        chips = rng.integers(0, 8, size=300)
        counts = rng.integers(1, 10, size=300)
        per_chip = active_cells_per_chip_iteration(chips, counts, 8)
        total = active_cells_per_iteration(counts, 16)
        assert (per_chip.sum(axis=0) == total).all()

    def test_single_chip(self):
        per_chip = active_cells_per_chip_iteration(
            np.zeros(4, dtype=np.int64), np.array([1, 2, 2, 3]), 2
        )
        assert per_chip[0].tolist() == [4, 3, 1]
        assert per_chip[1].tolist() == [0, 0, 0]

    def test_empty(self):
        out = active_cells_per_chip_iteration(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 8
        )
        assert out.shape == (8, 0)
