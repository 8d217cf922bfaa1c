"""Unit-conversion helpers."""

import pytest

from repro.errors import ConfigError
from repro.units import (
    bytes_to_cells,
    ns_to_cycles,
    reset_set_ratio,
)


class TestNsToCycles:
    def test_table1_read_latency(self):
        assert ns_to_cycles(250.0, 4.0) == 1000

    def test_table1_reset_latency(self):
        assert ns_to_cycles(125.0, 4.0) == 500

    def test_rounds_to_nearest(self):
        assert ns_to_cycles(0.6, 1.0) == 1

    def test_zero(self):
        assert ns_to_cycles(0.0, 4.0) == 0

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigError):
            ns_to_cycles(-1.0, 4.0)

    def test_bad_frequency_rejected(self):
        with pytest.raises(ConfigError):
            ns_to_cycles(1.0, 0.0)


class TestResetSetRatio:
    def test_table1_value(self):
        assert reset_set_ratio(480.0, 90.0) == pytest.approx(16 / 3)

    def test_figure5_illustrative_value(self):
        assert reset_set_ratio(100.0, 50.0) == 2.0

    def test_set_above_reset_rejected(self):
        with pytest.raises(ConfigError):
            reset_set_ratio(50.0, 100.0)

    def test_zero_set_rejected(self):
        with pytest.raises(ConfigError):
            reset_set_ratio(100.0, 0.0)


class TestBytesToCells:
    def test_mlc_line(self):
        assert bytes_to_cells(256, 2) == 1024

    def test_slc_line(self):
        assert bytes_to_cells(256, 1) == 2048

    def test_64b_line(self):
        assert bytes_to_cells(64, 2) == 256

    def test_unsupported_bits(self):
        with pytest.raises(ConfigError):
            bytes_to_cells(64, 3)

    def test_negative_bytes(self):
        with pytest.raises(ConfigError):
            bytes_to_cells(-1, 2)
