"""Trace generation: calibration, caching, prewarm, bytes and memory."""

import dataclasses
import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.config.presets import baseline_config
from repro.config.system import CacheLevelConfig, CPUConfig, WriteLevelModel
from repro.core.policies.registry import get_scheme
from repro.experiments.base import QUICK
from repro.experiments.registry import available_experiments, plan_runs
from repro.trace import generator
from repro.trace.generator import (
    TRACE_CACHE_LIMIT,
    clear_trace_cache,
    generate_trace,
    trace_structure,
)
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


class TestMemoBound:
    """The memo keeps the :data:`TRACE_CACHE_LIMIT` most recently used
    traces, so an engine worker that lives as long as a gateway holds a
    bounded set. Generation is stubbed out: these tests count calls."""

    @pytest.fixture
    def generated(self, monkeypatch):
        """The structure of every trace generated, in call order."""
        structures = []

        def stub(config, spec, n_pcm_writes, max_refs_per_core, seed,
                 prewarm):
            structures.append(trace_structure(
                config, spec.name, n_pcm_writes, max_refs_per_core,
                seed=seed))
            return object()

        monkeypatch.setattr(generator, "_generate", stub)
        return structures

    @staticmethod
    def seeds(structures):
        return [dict(structure)["seed"] for structure in structures]

    @staticmethod
    def fetch(seed):
        return generate_trace(make_tiny_config(), "tig_m", n_pcm_writes=60,
                              max_refs_per_core=15_000, seed=seed)

    def test_one_past_the_bound_evicts_the_least_recently_used(
            self, generated):
        assert TRACE_CACHE_LIMIT == 16
        for seed in range(17):
            self.fetch(seed)
        assert len(generator._TRACE_CACHE) == 16
        self.fetch(1)    # still held
        self.fetch(0)    # evicted by the 17th, so generated again
        assert self.seeds(generated) == [*range(17), 0]

    def test_a_hit_refreshes_recency(self, generated):
        for seed in range(16):
            self.fetch(seed)
        self.fetch(0)    # a hit: 0 becomes the most recently used
        self.fetch(16)   # so 1 is evicted, not 0
        self.fetch(0)
        self.fetch(1)
        assert self.seeds(generated) == [*range(17), 1]

    def test_clear_empties_the_memo(self, generated):
        self.fetch(0)
        clear_trace_cache()
        assert not generator._TRACE_CACHE
        self.fetch(0)
        assert self.seeds(generated) == [0, 0]

    def test_quick_run_all_generates_each_structure_once(self, generated):
        """``run all --scale quick`` in plan order: 424 requests over
        24 trace structures, each generated once, asking for traces the
        way every run does (config after its scheme is applied)."""
        requests = plan_runs(available_experiments(), baseline_config(),
                             QUICK)
        for request in requests:
            generate_trace(
                get_scheme(request.scheme).apply_to_config(request.config),
                request.workload,
                n_pcm_writes=request.scale.n_pcm_writes,
                max_refs_per_core=request.scale.max_refs_per_core)
        assert len(requests) == 424
        assert len(generated) == len(set(generated)) == 24


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


MB = 1 << 20

#: Small budgets: the prewarm is full size whatever the budget.
PIN_BUDGETS = dict(n_pcm_writes=40, max_refs_per_core=10_000)


def pin_config(kernel="reference", llc_mb=32):
    """The Table 1 baseline (8 cores, 32 MB per-core LLC) on ``kernel``,
    with its per-core LLC resized to ``llc_mb``."""
    config = baseline_config().with_kernel(kernel)
    if llc_mb != 32:
        config = config.with_llc_size(llc_mb * MB)
    return config


def trace_digest(trace):
    """sha256 over everything a trace holds: every record's fields and
    arrays (dtype, shape and bytes), the per-core stats and the totals."""
    digest = hashlib.sha256()

    def put(*values):
        digest.update(repr(values).encode())

    put(trace.workload, trace.line_size, len(trace.per_core))
    for stream, stats in zip(trace.per_core, trace.per_core_stats):
        put(dataclasses.astuple(stats), len(stream))
        for acc in stream:
            put(acc.core, acc.kind, acc.line_addr, acc.gap_instr,
                acc.gap_hit_cycles, acc.slc_bit_changes)
            for array in (acc.changed_idx, acc.iter_counts):
                if array is None:
                    put(None)
                else:
                    put(array.dtype.str, array.shape)
                    digest.update(array.tobytes())
    put(dataclasses.astuple(trace.stats))
    return digest.hexdigest()


#: Whole-trace digests at :data:`PIN_BUDGETS`, recorded while all cores
#: still shared one pair of line images. The kernels produce the same
#: bytes, so one digest covers both.
PINNED_DIGESTS = {
    ("lbm_m", 32): "a8f7fc34821062e1b4a16b461c04bb59"
                   "900d196b41b4c3893bcc76f971a765ad",
    ("mcf_m", 32): "72d209993347da395badd148c4861712"
                   "d48a2ad2f7d4445e3c4246328f06b441",
    ("tig_m", 32): "32dc614adefdb127b8032b36e6cd574c"
                   "bfa589ce39578f749f86f6f4334ddf61",
    ("mix_1", 32): "1f64eaf3e757fda1c782310a053b5dae"
                   "57126389489c19795a9737c83109e57a",
    ("mcf_m", 128): "a0580c5cf88e546a351aad47e5577dbb"
                    "441c7ec4ef788a974521c0afa7dc6bdd",
}


class TestPerCoreGeneration:
    """Each core generates with caches and line images of its own, freed
    before the next core starts. The bytes are those of one shared pair
    of images, and a trace's peak memory is one core's prewarm."""

    @pytest.mark.parametrize("workload, kernel, llc_mb", [
        *[(workload, kernel, 32)
          for workload in ("lbm_m", "mcf_m", "tig_m", "mix_1")
          for kernel in ("reference", "vectorized")],
        ("mcf_m", "reference", 128),
    ])
    def test_trace_bytes_are_pinned(self, workload, kernel, llc_mb):
        trace = generate_trace(pin_config(kernel, llc_mb), workload,
                               use_cache=False, **PIN_BUDGETS)
        assert trace_digest(trace) == PINNED_DIGESTS[workload, llc_mb]

    #: ``tracemalloc`` peaks at these budgets: about 113, 112, 28 and
    #: 449 MB with all cores' images alive to the end; about 29, 50, 8
    #: and 115 MB with one core's at a time.
    @pytest.mark.parametrize("workload, llc_mb, bound_mb", [
        ("mcf_m", 32, 56),
        ("mix_1", 32, 80),
        ("tig_m", 32, 14),
        ("mcf_m", 128, 224),
    ])
    def test_peak_memory_is_one_cores_prewarm(self, workload, llc_mb,
                                              bound_mb):
        config = pin_config(llc_mb=llc_mb)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            generate_trace(config, workload, use_cache=False, **PIN_BUDGETS)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < bound_mb * MB, f"{workload}: {peak / MB:.1f} MB"
