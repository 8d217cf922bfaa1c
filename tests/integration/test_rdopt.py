"""Write cancellation, pausing and truncation (Section 6.4.5)."""

from dataclasses import replace

from repro.config.system import SchedulerConfig
from repro.sim.runner import run_simulation

from ..conftest import make_tiny_config

N_WRITES = 60
MAX_REFS = 15_000


def rdopt_tiny(wc=False, wp=False, wt=False, queues=64):
    config = make_tiny_config()
    scheduler = SchedulerConfig(
        read_queue_entries=queues,
        write_queue_entries=queues,
        resp_queue_entries=queues,
        write_cancellation=wc,
        write_pausing=wp,
        write_truncation=wt,
    )
    return replace(config, scheduler=scheduler)


def run(config, scheme="fpb", workload="mcf_m"):
    return run_simulation(
        config, workload, scheme,
        n_pcm_writes=N_WRITES, max_refs_per_core=MAX_REFS,
    )


class TestWriteCancellation:
    def test_cancellations_happen(self):
        result = run(rdopt_tiny(wc=True))
        assert result.stats.write_cancellations > 0
        assert result.stats.write_pauses == 0

    def test_all_work_still_completes(self):
        base = run(rdopt_tiny())
        wc = run(rdopt_tiny(wc=True))
        assert wc.stats.writes_done == base.stats.writes_done
        assert wc.stats.reads_done == base.stats.reads_done

    def test_reads_get_faster(self):
        base = run(rdopt_tiny())
        wc = run(rdopt_tiny(wc=True))
        assert wc.stats.mean_read_latency <= base.stats.mean_read_latency * 1.2


class TestWritePausing:
    def test_pauses_happen(self):
        result = run(rdopt_tiny(wc=True, wp=True))
        assert result.stats.write_pauses > 0
        # With pausing enabled, reads preempt by pausing, not cancelling.
        assert result.stats.write_cancellations == 0

    def test_work_completes(self):
        base = run(rdopt_tiny())
        wp = run(rdopt_tiny(wc=True, wp=True))
        assert wp.stats.writes_done == base.stats.writes_done


class TestWriteTruncation:
    def test_truncation_shortens_writes(self):
        base = run(rdopt_tiny())
        wt = run(rdopt_tiny(wt=True))
        assert wt.stats.mean_write_latency < base.stats.mean_write_latency

    def test_truncation_helps_performance(self):
        base = run(rdopt_tiny())
        wt = run(rdopt_tiny(wt=True))
        assert wt.cpi <= base.cpi * 1.02


class TestFullStack:
    def test_combined_stack_beats_fpb_alone(self):
        """Figure 23's direction: FPB+WC+WP+WT >= FPB."""
        base = run(rdopt_tiny())
        full = run(rdopt_tiny(wc=True, wp=True, wt=True, queues=128))
        assert full.cpi <= base.cpi * 1.1

    def test_rdopt_with_baseline_scheme(self):
        result = run(rdopt_tiny(wc=True, wp=True, wt=True), scheme="dimm+chip")
        assert result.stats.writes_done > 0


class TestCancellationOfVerifyOnlyWrites:
    def test_cancelled_empty_write_completes_cleanly(self):
        """Regression: an empty (verify-only) write cancelled by a read
        must not fire its stale completion event against the bank."""
        import numpy as np
        from repro.trace.records import PCMAccess

        config = rdopt_tiny(wc=True)
        from repro.core.policies.registry import get_scheme
        from repro.pcm.dimm import DIMM
        from repro.sim import Core, MemorySystem, SimEngine
        from repro.sim.stats import SimStats

        spec = get_scheme("fpb")
        cfg = spec.apply_to_config(config)
        engine = SimEngine()
        stats = SimStats()
        dimm = DIMM(cfg)
        mem = MemorySystem(cfg, dimm, spec.build_manager(cfg, dimm),
                           engine, stats)
        empty = PCMAccess(
            core=0, kind="W", line_addr=0, gap_instr=1, gap_hit_cycles=0,
            changed_idx=np.zeros(0, dtype=np.int64),
            iter_counts=np.zeros(0, dtype=np.uint8),
        )
        # A read to the same bank arrives while the verify is running.
        read = PCMAccess(core=1, kind="R", line_addr=8 * 256 * 0,
                         gap_instr=200, gap_hit_cycles=0)
        cores = [Core(0, [empty], engine, mem), Core(1, [read], engine, mem)]
        for core in cores:
            core.start()
        end = engine.run()
        mem.finalize(end)
        assert not mem.work_outstanding
        assert stats.writes_done == 1
        assert stats.reads_done == 1
