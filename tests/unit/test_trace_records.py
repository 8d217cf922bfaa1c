"""Trace records and statistics."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.records import PCMAccess, READ, Trace, TraceStats, WRITE


def read_rec(core=0, addr=0, gap=10):
    return PCMAccess(core=core, kind=READ, line_addr=addr,
                     gap_instr=gap, gap_hit_cycles=5)


def write_rec(core=0, addr=0, gap=10, n=4):
    return PCMAccess(
        core=core, kind=WRITE, line_addr=addr, gap_instr=gap,
        gap_hit_cycles=5, changed_idx=np.arange(n),
        iter_counts=np.full(n, 2, dtype=np.uint8), slc_bit_changes=2 * n,
    )


class TestPCMAccess:
    def test_bad_kind_rejected(self):
        with pytest.raises(TraceError):
            PCMAccess(0, "X", 0, 1, 0)

    def test_write_requires_changed_idx(self):
        with pytest.raises(TraceError):
            PCMAccess(0, WRITE, 0, 1, 0)

    def test_n_cells(self):
        assert write_rec(n=7).n_cells_changed == 7
        assert read_rec().n_cells_changed == 0


class TestTraceStats:
    def test_pki(self):
        stats = TraceStats(instructions=2000, reads=4, writes=2)
        assert stats.rpki == 2.0
        assert stats.wpki == 1.0

    def test_mean_changes(self):
        stats = TraceStats(writes=2, total_cells_changed=20,
                           total_slc_bit_changes=30)
        assert stats.mean_cells_changed == 10.0
        assert stats.mean_slc_bit_changes == 15.0

    def test_empty_safe(self):
        stats = TraceStats()
        assert stats.rpki == 0.0
        assert stats.mean_cells_changed == 0.0


class TestTraceValidation:
    def test_valid(self):
        trace = Trace("t", 256, per_core=[[read_rec(0, 512)], [write_rec(1, 256)]])
        trace.validate()

    def test_core_mismatch(self):
        trace = Trace("t", 256, per_core=[[read_rec(core=1)]])
        with pytest.raises(TraceError):
            trace.validate()

    def test_unaligned_address(self):
        trace = Trace("t", 256, per_core=[[read_rec(0, 100)]])
        with pytest.raises(TraceError):
            trace.validate()

    def test_summary(self):
        trace = Trace("t", 256)
        trace.stats = TraceStats(instructions=1000, reads=3, writes=1)
        summary = trace.summary()
        assert summary["rpki"] == 3.0
        assert not any(trace.per_core)
