"""Write-pausing edge paths: pause/resume interplay with bursts and
multi-round writes."""

from dataclasses import replace

import numpy as np

from repro.config.system import SchedulerConfig
from repro.core.policies.registry import get_scheme
from repro.obs import Telemetry
from repro.pcm.dimm import DIMM
from repro.sim import Core, MemorySystem, SimEngine
from repro.sim.stats import SimStats
from repro.trace.records import PCMAccess, READ, WRITE

from ..conftest import make_tiny_config

LINE = 256


def wp_config(queues=64):
    config = make_tiny_config()
    return replace(config, scheduler=SchedulerConfig(
        read_queue_entries=queues, write_queue_entries=queues,
        resp_queue_entries=queues,
        write_cancellation=True, write_pausing=True,
    ))


def write_rec(addr, n=40, gap=100, iters=8, core=0):
    idx = np.unique(np.linspace(0, 1023, n).astype(np.int64))
    return PCMAccess(core=core, kind=WRITE, line_addr=addr, gap_instr=gap,
                     gap_hit_cycles=0, changed_idx=idx,
                     iter_counts=np.full(idx.size, iters, dtype=np.uint8))


def read_rec(addr, gap=100, core=1):
    return PCMAccess(core=core, kind=READ, line_addr=addr,
                     gap_instr=gap, gap_hit_cycles=0)


def run(streams, config=None, scheme="fpb", with_telemetry=False):
    config = config or wp_config()
    spec = get_scheme(scheme)
    cfg = spec.apply_to_config(config)
    engine = SimEngine()
    stats = SimStats()
    dimm = DIMM(cfg)
    manager = spec.build_manager(cfg, dimm)
    mem = MemorySystem(cfg, dimm, manager, engine, stats)
    telemetry = None
    if with_telemetry:
        telemetry = Telemetry()
        telemetry.attach(cfg, scheme, "pause", engine, mem, manager)
    cores = [Core(i, s, engine, mem) for i, s in enumerate(streams)]
    for core in cores:
        core.start()
    end = engine.run()
    assert not mem.work_outstanding
    mem.finalize(end)
    if with_telemetry:
        telemetry.finish_run(stats, end)
    return stats, telemetry


class TestPauseResume:
    def test_paused_write_resumes_and_completes(self):
        streams = [
            [write_rec(0, iters=12)],
            [read_rec(8 * LINE, gap=1200)],  # same bank, mid-write
        ]
        stats, telemetry = run(streams, with_telemetry=True)
        assert stats.write_pauses >= 1
        assert stats.writes_done == 1
        assert stats.reads_done == 1
        # The pause fell inside the write's round: the write yielded
        # mid-flight, then resumed and finished that same round.
        pause = telemetry.trace.events_named("write_pause")[0]
        (round_,) = [e for e in telemetry.trace.events_named("write_round")
                     if e["args"]["write"] == pause["args"]["write"]]
        assert round_["ts"] < pause["ts"] < round_["ts"] + round_["dur"]

    def test_pause_speeds_up_the_read(self):
        streams_wp = [
            [write_rec(0, iters=12)],
            [read_rec(8 * LINE, gap=1200)],
        ]
        stats_wp, _ = run(streams_wp)
        streams_plain = [
            [write_rec(0, iters=12)],
            [read_rec(8 * LINE, gap=1200)],
        ]
        stats_plain, _ = run(streams_plain, config=make_tiny_config())
        assert stats_wp.mean_read_latency < stats_plain.mean_read_latency

    def test_multiple_pauses_one_write(self):
        reads = [read_rec(8 * LINE, gap=2500, core=1) for _ in range(3)]
        stats, _ = run([[write_rec(0, iters=14)], reads])
        assert stats.write_pauses >= 2
        assert stats.writes_done == 1

    def test_pause_with_multiround_write(self):
        """An oversized write splits into rounds; pausing one round must
        not lose the remaining rounds."""
        idx = np.arange(120)  # hot chip 0 -> 2 rounds
        big = PCMAccess(core=0, kind=WRITE, line_addr=0, gap_instr=1,
                        gap_hit_cycles=0, changed_idx=idx,
                        iter_counts=np.full(120, 10, dtype=np.uint8))
        reads = [read_rec(8 * LINE, gap=3000, core=1) for _ in range(2)]
        # Per-write budgeting (no Multi-RESET) forces the round split.
        stats, _ = run([[big], reads], scheme="dimm+chip")
        assert stats.writes_done == 1
        assert stats.write_rounds_done == 2

    def test_tokens_released_while_paused(self):
        """A paused write holds no tokens, so another bank's write can
        use the full budget."""
        streams = [
            [write_rec(0, n=300, iters=12),          # big write, bank 0
             write_rec(LINE, n=300, iters=6)],       # bank 1
            [read_rec(8 * LINE, gap=1200)],          # pauses bank 0
        ]
        stats, _ = run(streams)
        assert stats.writes_done == 2
        assert stats.write_pauses >= 1
