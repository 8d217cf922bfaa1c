"""Wear tracking and lifetime estimation."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.pcm.endurance import DEFAULT_MLC_ENDURANCE, WearTracker


class TestWearTracker:
    def test_untouched_line_has_no_wear(self):
        tracker = WearTracker(1024)
        assert tracker.max_wear(0) == 0

    def test_write_ages_changed_cells(self):
        tracker = WearTracker(1024)
        tracker.record_write(0, np.array([1, 5, 9]))
        wear = tracker.line_wear(0)
        assert wear[1] == wear[5] == wear[9] == 1
        assert wear.sum() == 3

    def test_repeated_writes_accumulate(self):
        tracker = WearTracker(1024)
        for _ in range(5):
            tracker.record_write(0, np.array([7]))
        assert tracker.max_wear(0) == 5

    def test_rotation_spreads_wear(self):
        """PWL's purpose: the same logical cells, rotated, age different
        physical cells."""
        plain = WearTracker(1024)
        rotated = WearTracker(1024)
        idx = np.array([0, 1, 2, 3])
        for k in range(8):
            plain.record_write(0, idx, offset=0)
            rotated.record_write(0, idx, offset=k * 128)
        assert rotated.max_wear(0) < plain.max_wear(0)
        assert rotated.wear_imbalance(0) < plain.wear_imbalance(0)

    def test_imbalance_of_even_wear(self):
        tracker = WearTracker(8)
        tracker.record_write(0, np.arange(8))
        assert tracker.wear_imbalance(0) == pytest.approx(1.0)

    def test_global_max(self):
        tracker = WearTracker(1024)
        tracker.record_write(0, np.array([0]))
        tracker.record_write(256, np.array([0, 1]))
        tracker.record_write(256, np.array([0]))
        assert tracker.max_wear() == 2

    def test_mean_imbalance(self):
        tracker = WearTracker(8)
        tracker.record_write(0, np.arange(8))     # even
        tracker.record_write(64, np.array([0]))   # skewed
        assert tracker.mean_imbalance() > 1.0

    def test_counters(self):
        tracker = WearTracker(1024)
        tracker.record_write(0, np.array([1, 2]))
        tracker.record_write(0, np.array([3]))
        assert tracker.total_cell_writes == 3
        assert tracker.line_writes == 2
        assert tracker.lines_tracked == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            WearTracker(0)
        with pytest.raises(ConfigError):
            WearTracker(8, endurance=0)
        tracker = WearTracker(8)
        with pytest.raises(ConfigError):
            tracker.record_write(0, np.array([9]))

    def test_default_endurance(self):
        assert WearTracker(8).endurance == DEFAULT_MLC_ENDURANCE
