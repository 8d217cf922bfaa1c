"""Flip-N-Write encoding on 2-bit MLC."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.pcm.flipnwrite import FlipNWrite, flip_savings_sample
from repro.rng import make_rng


class TestInversion:
    def test_level_complement(self):
        levels = np.array([0, 1, 2, 3], dtype=np.uint8)
        assert FlipNWrite.invert_levels(levels).tolist() == [3, 2, 1, 0]

    def test_involution(self):
        levels = np.arange(4, dtype=np.uint8)
        double = FlipNWrite.invert_levels(FlipNWrite.invert_levels(levels))
        assert (double == levels).all()


class TestEncoder:
    def test_identical_write_changes_nothing(self):
        enc = FlipNWrite(256, 32)
        data = np.arange(64, dtype=np.uint8)
        result = enc.encode(0, data, data.copy())
        assert result.encoded_changes == 0
        assert result.plain_changes == 0

    def test_never_worse_than_plain_plus_flags(self):
        enc = FlipNWrite(256, 32)
        rng = make_rng(1, "fnw")
        old = rng.integers(0, 256, 64, dtype=np.uint8)
        new = rng.integers(0, 256, 64, dtype=np.uint8)
        result = enc.encode(0, old, new)
        assert result.encoded_changes <= result.plain_changes + enc.n_blocks

    def test_full_inversion_write_is_cheap(self):
        """Writing the exact complement of a block costs ~only the flag."""
        enc = FlipNWrite(256, 32)
        old = np.zeros(64, dtype=np.uint8)          # all level 0
        new = np.full(64, 0xFF, dtype=np.uint8)     # all level 3
        result = enc.encode(0, old, new)
        # Plain write: every cell changes; flipped: only flag cells.
        assert result.plain_changes == 256
        assert result.encoded_changes <= enc.n_blocks
        assert result.flip_flags.all()

    def test_polarity_remembered_across_writes(self):
        enc = FlipNWrite(256, 32)
        old = np.zeros(64, dtype=np.uint8)
        inverted = np.full(64, 0xFF, dtype=np.uint8)
        enc.encode(0, old, inverted)
        # Writing the same inverted data again changes nothing.
        result = enc.encode(0, inverted, inverted.copy())
        assert result.encoded_changes == 0

    def test_bad_geometry(self):
        with pytest.raises(ConfigError):
            FlipNWrite(100, 32)

    def test_lines_independent(self):
        enc = FlipNWrite(256, 32)
        old = np.zeros(64, dtype=np.uint8)
        new = np.full(64, 0xFF, dtype=np.uint8)
        enc.encode(0, old, new)
        # Line 1 still has straight polarity.
        result = enc.encode(1, old, old.copy())
        assert result.encoded_changes == 0


class TestMLCLimitation:
    def test_limited_benefit_for_typical_mlc_data(self):
        """The paper's Section 7 claim: for realistic (non-complement)
        data, Flip-N-Write saves little on 2-bit MLC."""
        rng = make_rng(3, "fnw")
        old = rng.integers(0, 256, (60, 256), dtype=np.uint8)
        new = old.copy()
        mask = rng.random((60, 256)) < 0.4
        fresh = rng.integers(0, 256, (60, 256), dtype=np.uint8)
        new[mask] = fresh[mask]
        plain, encoded = flip_savings_sample(old, new)
        assert encoded <= plain
        assert encoded > 0.75 * plain  # savings under 25%

    def test_sample_helper_shape_check(self):
        with pytest.raises(ConfigError):
            flip_savings_sample(
                np.zeros(64, dtype=np.uint8), np.zeros(64, dtype=np.uint8)
            )
