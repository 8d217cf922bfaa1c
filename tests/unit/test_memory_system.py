"""Memory-controller mechanics, driven with hand-built traces."""

import gc

import numpy as np
import pytest

from repro.core.policies.registry import get_scheme
from repro.core.write_op import WriteOperation
from repro.kernel import available_kernels
from repro.pcm.dimm import DIMM
from repro.sim.cpu import Core
from repro.sim.events import SimEngine
from repro.sim.memory_system import MemorySystem, WriteJob
from repro.sim.runner import run_simulation
from repro.sim.stats import SimStats
from repro.trace.records import PCMAccess, READ, WRITE

from ..conftest import make_tiny_config


def read_rec(addr, gap=100, core=0):
    return PCMAccess(core=core, kind=READ, line_addr=addr,
                     gap_instr=gap, gap_hit_cycles=0)


def write_rec(addr, n_cells=40, gap=100, core=0, iters=2):
    idx = np.linspace(0, 1023, n_cells).astype(np.int64)
    idx = np.unique(idx)
    return PCMAccess(
        core=core, kind=WRITE, line_addr=addr, gap_instr=gap,
        gap_hit_cycles=0, changed_idx=idx,
        iter_counts=np.full(idx.size, iters, dtype=np.uint8),
    )


def run_streams(streams, scheme="dimm+chip", config=None):
    config = config or make_tiny_config()
    spec = get_scheme(scheme)
    cfg = spec.apply_to_config(config)
    engine = SimEngine()
    stats = SimStats()
    dimm = DIMM(cfg)
    manager = spec.build_manager(cfg, dimm)
    mem = MemorySystem(cfg, dimm, manager, engine, stats)
    cores = [Core(i, s, engine, mem) for i, s in enumerate(streams)]
    for core in cores:
        core.start()
    end = engine.run()
    assert not mem.work_outstanding
    mem.finalize(end)
    stats.core_instructions = [c.instructions for c in cores]
    stats.core_finish_cycles = [c.finish_time or end for c in cores]
    return mem, stats, cores


LINE = 256


class TestReads:
    def test_single_read_latency(self):
        """mc-to-bank (64) + array read (1000) + channel transfer."""
        mem, stats, _ = run_streams([[read_rec(0, gap=10)], []])
        assert stats.reads_done == 1
        expected_min = 64 + 1000
        assert stats.mean_read_latency >= expected_min
        assert stats.mean_read_latency <= expected_min + 64

    def test_same_bank_reads_serialize(self):
        recs = [read_rec(0, gap=1), read_rec(8 * LINE, gap=1)]  # same bank
        _, stats, _ = run_streams([recs, []])
        # Two 1000-cycle array reads on one bank cannot overlap.
        assert stats.total_cycles >= 2 * 1000

    def test_different_banks_overlap(self):
        same = run_streams(
            [[read_rec(0, gap=1)], [read_rec(8 * LINE, gap=1)]]
        )[1].total_cycles
        diff = run_streams(
            [[read_rec(0, gap=1)], [read_rec(LINE, gap=1)]]
        )[1].total_cycles
        assert diff < same


class TestWrites:
    def test_write_occupies_bank_for_all_iterations(self):
        # 1 RESET (500) + 1 SET (1000), then a read on the same bank.
        streams = [[write_rec(0, gap=1, iters=2),
                    read_rec(8 * LINE, gap=1)], []]
        _, stats, _ = run_streams(streams)
        assert stats.writes_done == 1
        assert stats.mean_read_latency >= 1500

    def test_reads_have_priority(self):
        """A queued write must wait while reads are pending."""
        streams = [
            [write_rec(0, gap=1)],
            [read_rec(LINE, gap=1), read_rec(2 * LINE, gap=400)],
        ]
        mem, stats, _ = run_streams(streams)
        assert stats.reads_done == 2
        assert stats.writes_done == 1

    def test_empty_write_completes(self):
        rec = PCMAccess(core=0, kind=WRITE, line_addr=0, gap_instr=1,
                        gap_hit_cycles=0,
                        changed_idx=np.zeros(0, dtype=np.int64),
                        iter_counts=np.zeros(0, dtype=np.uint8))
        _, stats, _ = run_streams([[rec], []])
        assert stats.writes_done == 1

    def test_round_splitting_for_oversized_write(self):
        """A write whose hot chip exceeds the LCP budget splits into
        sequential rounds."""
        idx = np.arange(100)  # 100 cells on chip 0 > 66.5 budget
        rec = PCMAccess(core=0, kind=WRITE, line_addr=0, gap_instr=1,
                        gap_hit_cycles=0, changed_idx=idx,
                        iter_counts=np.full(100, 2, dtype=np.uint8))
        _, stats, _ = run_streams([[rec], []])
        assert stats.writes_done == 1
        assert stats.round_split_writes == 1
        assert stats.write_rounds_done == 2


class TestWriteBurst:
    def test_full_queue_triggers_burst(self):
        config = make_tiny_config()
        # Enough slow writes to outpace the 8 banks and fill the WRQ:
        # the first 8 issue immediately, the rest back up.
        n = 2 * config.scheduler.write_queue_entries + 10
        recs = [write_rec(k * LINE, gap=1, n_cells=60, iters=8)
                for k in range(n)]
        _, stats, _ = run_streams([recs, []], config=config)
        assert stats.burst_entries >= 1
        assert stats.burst_cycles > 0

    def test_few_writes_no_burst(self):
        recs = [write_rec(k * LINE, gap=5000) for k in range(3)]
        _, stats, _ = run_streams([recs, []])
        assert stats.burst_entries == 0

    def test_burst_blocks_reads(self):
        """Reads arriving during a burst wait until the WRQ drains."""
        config = make_tiny_config()
        n = config.scheduler.write_queue_entries + 2
        writes = [write_rec(k * LINE, gap=1, n_cells=30, core=0)
                  for k in range(n)]
        reads = [read_rec(3 * LINE, gap=2000, core=1)]
        _, stats, _ = run_streams([writes, reads], config=config)
        assert stats.mean_read_latency > 1500


class TestBackpressure:
    def test_core_stalls_on_full_wrq(self):
        """With more writes than WRQ slots and slow drain, cores stall
        but everything completes."""
        config = make_tiny_config()
        n = 3 * config.scheduler.write_queue_entries
        recs = [write_rec(k * LINE, gap=1, n_cells=60) for k in range(n)]
        _, stats, cores = run_streams([recs, []], config=config)
        assert stats.writes_done == n
        assert all(c.finished for c in cores)


class TestWriteActiveAccounting:
    def test_active_cycles_bounded_by_total(self):
        recs = [write_rec(k * LINE, gap=1) for k in range(6)]
        _, stats, _ = run_streams([recs, []])
        assert 0 < stats.write_active_cycles <= stats.total_cycles

    def test_energy_accounting_positive(self):
        recs = [write_rec(k * LINE, gap=1) for k in range(4)]
        _, stats, _ = run_streams([recs, []])
        assert stats.dimm_token_cycles > 0
        assert stats.write_energy_uj(480.0, 4.0) > 0

    def test_wear_tracking_optional(self):
        from dataclasses import replace
        config = replace(make_tiny_config(), track_wear=True)
        recs = [write_rec(k * LINE, gap=1) for k in range(3)]
        mem, stats, _ = run_streams([recs, []], config=config)
        assert mem.wear is not None
        assert mem.wear.line_writes == stats.write_rounds_done


class TestRespQueue:
    def test_respq_backpressure(self):
        """With a 1-entry RespQ, concurrent bank reads serialize on the
        response path."""
        from dataclasses import replace
        config = make_tiny_config()
        tight = replace(config, scheduler=replace(
            config.scheduler, resp_queue_entries=1))
        streams_tight = [[read_rec(0, gap=1)], [read_rec(LINE, gap=1)]]
        _, stats_tight, _ = run_streams(streams_tight, config=tight)
        streams_wide = [[read_rec(0, gap=1)], [read_rec(LINE, gap=1)]]
        _, stats_wide, _ = run_streams(streams_wide, config=config)
        assert stats_tight.reads_done == stats_wide.reads_done == 2
        assert stats_tight.total_cycles >= stats_wide.total_cycles


class TestOutOfOrderWindow:
    def test_sche_skips_blocked_head(self):
        """sche-X issues a later write when the head's bank is busy."""
        # Two writes to bank 0 (head blocked after the first) and one to
        # bank 1; under window=1 the bank-1 write waits for the head.
        recs = [
            write_rec(0, gap=1, n_cells=40, iters=8),
            write_rec(8 * LINE, gap=1, n_cells=40, iters=8),   # bank 0
            write_rec(LINE, gap=1, n_cells=40, iters=8),       # bank 1
        ]
        fifo = run_streams([list(recs), []], scheme="dimm+chip")[1]
        ooo = run_streams([list(recs), []], scheme="sche24")[1]
        assert ooo.total_cycles <= fifo.total_cycles


class TestPreSETPayload:
    def test_payload_shape(self):
        from dataclasses import replace
        config = replace(
            make_tiny_config(),
            scheduler=replace(make_tiny_config().scheduler,
                              preset_writes=True,
                              preset_reset_fraction=0.75),
        )
        spec = get_scheme("ideal")
        cfg = spec.apply_to_config(config)
        engine = SimEngine()
        dimm = DIMM(cfg)
        mem = MemorySystem(cfg, dimm, spec.build_manager(cfg, dimm),
                           engine, SimStats())
        idx, iters = mem._preset_payload()
        assert idx.size == 768  # 75% of 1024 cells
        assert (iters == 1).all()

    def test_empty_writes_stay_empty(self):
        """A write that changes nothing stays a verify-only no-op even
        under PreSET (nothing was dirtied, nothing to RESET)."""
        from dataclasses import replace
        config = replace(
            make_tiny_config(),
            scheduler=replace(make_tiny_config().scheduler,
                              preset_writes=True),
        )
        rec = PCMAccess(core=0, kind=WRITE, line_addr=0, gap_instr=1,
                        gap_hit_cycles=0,
                        changed_idx=np.zeros(0, dtype=np.int64),
                        iter_counts=np.zeros(0, dtype=np.uint8))
        _, stats, _ = run_streams([[rec], []], config=config, scheme="ideal")
        assert stats.writes_done == 1
        assert stats.cells_written == 0


class TestFinishedWrites:
    @pytest.mark.parametrize("kernel", available_kernels())
    def test_freed_without_the_cycle_collector(self, kernel):
        """A finished write and its job reference each other only while
        the write is in flight, so refcounting frees both: after a run,
        a collection finds neither among the unreachable objects."""
        config = make_tiny_config().with_kernel(kernel)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            result = run_simulation(config, "lbm_m", "fpb",
                                    n_pcm_writes=40,
                                    max_refs_per_core=8_000)
            assert result.stats.writes_done > 0
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            cyclic = [type(obj).__name__ for obj in gc.garbage
                      if isinstance(obj, (WriteJob, WriteOperation))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert cyclic == []
