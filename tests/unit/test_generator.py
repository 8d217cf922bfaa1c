"""Trace generation: calibration, caching, prewarm."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config.system import CacheLevelConfig, CPUConfig, WriteLevelModel
from repro.trace.generator import clear_trace_cache, generate_trace
from repro.trace.records import READ, WRITE

from ..conftest import make_tiny_config


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


def tiny_trace(workload="mcf_m", **kwargs):
    config = make_tiny_config()
    kwargs.setdefault("n_pcm_writes", 60)
    kwargs.setdefault("max_refs_per_core", 15_000)
    return generate_trace(config, workload, **kwargs)


class TestGeneration:
    def test_structure_valid(self):
        trace = tiny_trace()
        trace.validate()
        assert trace.n_cores == 2

    def test_reaches_write_target(self):
        trace = tiny_trace()
        assert trace.stats.writes >= 50

    def test_writes_have_device_data(self):
        trace = tiny_trace()
        for stream in trace.per_core:
            for acc in stream:
                if acc.kind == WRITE:
                    assert acc.changed_idx is not None
                    assert acc.iter_counts is not None
                    assert acc.iter_counts.size == acc.changed_idx.size
                    if acc.iter_counts.size:
                        assert acc.iter_counts.min() >= 1

    def test_line_alignment(self):
        trace = tiny_trace()
        for stream in trace.per_core:
            for acc in stream:
                assert acc.line_addr % 256 == 0

    def test_reads_and_writes_present(self):
        trace = tiny_trace()
        kinds = {
            acc.kind for stream in trace.per_core for acc in stream
        }
        assert kinds == {READ, WRITE}

    def test_deterministic_for_seed(self):
        a = tiny_trace(use_cache=False)
        b = tiny_trace(use_cache=False)
        assert a.stats.instructions == b.stats.instructions
        assert a.stats.reads == b.stats.reads
        first_a = a.per_core[0][0]
        first_b = b.per_core[0][0]
        assert first_a.line_addr == first_b.line_addr

    def test_seed_changes_trace(self):
        a = tiny_trace(seed=1, use_cache=False)
        b = tiny_trace(seed=2, use_cache=False)
        assert a.stats.instructions != b.stats.instructions

    def test_cache_returns_same_object(self):
        a = tiny_trace()
        b = tiny_trace()
        assert a is b

    def test_cache_key_includes_workload(self):
        a = tiny_trace("mcf_m")
        b = tiny_trace("tig_m")
        assert a is not b


def _with_cores(config):
    return replace(config, cpu=CPUConfig(cores=1))


def _with_l1_geometry(config):
    return replace(config, caches=replace(
        config.caches, l1=CacheLevelConfig(4 * 1024, 1, 64, 2)))


def _with_l2_latency(config):
    return replace(config, caches=replace(
        config.caches, l2=replace(config.caches.l2, hit_latency_cycles=11)))


def _with_l3_latency(config):
    return replace(config, caches=replace(
        config.caches, l3=replace(config.caches.l3, hit_latency_cycles=300)))


def _with_level_models(config):
    models = list(config.pcm.level_models)
    models[1] = WriteLevelModel(mean_iterations=4.0, fast_fraction=0.375,
                                fast_max_iterations=2, max_iterations=16)
    return replace(config, pcm=replace(config.pcm, level_models=tuple(models)))


class TestMemoKey:
    """The memo must key on every field the generator reads: a config
    that differs only in one of them gets its own trace, never the
    memoized trace of another config."""

    @pytest.mark.parametrize("vary", [
        _with_cores, _with_l1_geometry, _with_l2_latency,
        _with_l3_latency, _with_level_models,
    ], ids=lambda f: f.__name__[len("_with_"):])
    def test_variant_gets_its_own_trace(self, vary):
        base = tiny_trace("tig_m")
        variant = vary(make_tiny_config())
        kwargs = dict(n_pcm_writes=60, max_refs_per_core=15_000)
        memoized = generate_trace(variant, "tig_m", **kwargs)
        fresh = generate_trace(variant, "tig_m", use_cache=False, **kwargs)
        assert memoized is not base
        assert memoized.n_cores == variant.cpu.cores
        assert _content(memoized) == _content(fresh)
        assert _content(memoized) != _content(base)


def _content(trace):
    """Everything a replay reads from a trace, as comparable values."""
    return [
        (acc.core, acc.kind, acc.line_addr, acc.gap_instr,
         acc.gap_hit_cycles,
         None if acc.iter_counts is None else acc.iter_counts.tolist())
        for stream in trace.per_core for acc in stream
    ]


class TestCalibration:
    def test_wpki_tracks_table_ratio(self):
        """W/R at the PCM level should land near the Table 2 ratio."""
        trace = tiny_trace("mcf_m", n_pcm_writes=120, max_refs_per_core=30_000)
        ratio = trace.stats.writes / max(1, trace.stats.reads)
        assert 0.2 < ratio < 0.9  # table: 2.29/4.74 = 0.48

    def test_read_dominated_workload(self):
        trace = tiny_trace("tig_m", n_pcm_writes=120, max_refs_per_core=30_000)
        assert trace.stats.reads > 2 * trace.stats.writes

    def test_prewarm_disabled_changes_behaviour(self):
        warm = tiny_trace(use_cache=False, prewarm=True)
        cold = tiny_trace(use_cache=False, prewarm=False)
        # Without prewarm, the tiny window produces far fewer writes.
        assert cold.stats.writes <= warm.stats.writes


class TestCellChangeContent:
    def test_changed_idx_within_line(self):
        trace = tiny_trace()
        for stream in trace.per_core:
            for acc in stream:
                if acc.kind == WRITE and acc.changed_idx.size:
                    assert acc.changed_idx.min() >= 0
                    assert acc.changed_idx.max() < 1024

    def test_slc_changes_exceed_mlc(self):
        trace = tiny_trace()
        assert (
            trace.stats.mean_slc_bit_changes
            >= trace.stats.mean_cells_changed
        )

    def test_iteration_counts_bounded(self):
        trace = tiny_trace()
        all_iters = np.concatenate([
            acc.iter_counts
            for stream in trace.per_core for acc in stream
            if acc.kind == WRITE and acc.iter_counts.size
        ])
        assert all_iters.max() <= 16
