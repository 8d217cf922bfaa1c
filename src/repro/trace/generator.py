"""Trace generation: run synthetic workloads through the cache
hierarchy and record the PCM-visible access stream.

The output :class:`~repro.trace.records.Trace` is *scheme independent*:
cell changes are diffed against an evolving PCM image and iteration
counts are sampled once, so every power-budgeting scheme replays
identical device behaviour (Section 5.1's fixed PIN traces).

Two practical devices keep generation tractable:

* **L3 prewarming** — each L3 is filled with plausibly-dirty resident
  lines before recording starts, so the trace reflects steady-state
  eviction behaviour without simulating the 100M+ instruction warm-up
  the paper's SimPoint phases imply.
* **Gap calibration** — instruction gaps are rescaled after generation
  so each core's PCM-level RPKI matches its benchmark's Table 2 target
  exactly (gaps don't affect cache behaviour, so this is lossless).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from ..cache.hierarchy import CoreHierarchy, PCM_READ
from ..config.system import SystemConfig, canonical_value
from ..pcm.cells import changed_cell_targets
from ..pcm.contents import LineStore
from ..pcm.write_model import IterationSampler
from ..rng import make_rng
from .records import PCMAccess, READ, Trace, TraceStats, WRITE
from .workloads import WorkloadSpec, get_workload

#: Address-space stride between cores (private footprints never collide).
CORE_ADDR_STRIDE = 1 << 40

#: Most traces one process memoizes; the least recently used goes
#: first. An engine worker keeps its memo for the life of its pool,
#: which for a gateway is the life of the daemon. In plan order, the
#: quick-scale ``run all`` plan never needs more than 15 of its 24
#: structures at once, so 16 generates each of them once.
TRACE_CACHE_LIMIT = 16

_TRACE_CACHE: "OrderedDict[Tuple, Trace]" = OrderedDict()


def clear_trace_cache() -> None:
    """Drop all memoized traces (tests and sweeps)."""
    _TRACE_CACHE.clear()


def trace_structure(
    config: SystemConfig,
    workload: str,
    n_pcm_writes: int,
    max_refs_per_core: int,
    *,
    seed: Optional[int] = None,
) -> Tuple[Tuple[str, object], ...]:
    """Everything a generated trace depends on, as ``(name, value)``
    pairs: the trace memo's key, and the batch tier's cohort key.

    The CPU, cache and PCM configs take part whole (through
    :func:`~repro.config.system.canonical_value`), so no field the
    generator reads can be left out of either key. The kernel never
    changes a trace's bytes, but it is part of the key so each kernel
    exercises its own sampling path end to end (the
    differential-equivalence suite relies on that).
    """
    return (
        ("workload", workload),
        ("n_pcm_writes", n_pcm_writes),
        ("max_refs_per_core", max_refs_per_core),
        ("kernel", config.kernel),
        ("seed", config.seed if seed is None else seed),
        ("cpu", canonical_value(config.cpu)),
        ("caches", canonical_value(config.caches)),
        ("pcm", canonical_value(config.pcm)),
        ("line_size", config.memory.line_size),
    )


def generate_trace(
    config: SystemConfig,
    workload: str,
    *,
    n_pcm_writes: int = 2400,
    max_refs_per_core: int = 400_000,
    seed: Optional[int] = None,
    prewarm: bool = True,
    use_cache: bool = True,
) -> Trace:
    """Generate (or fetch from the memo of the last
    :data:`TRACE_CACHE_LIMIT` traces used) the PCM trace of a workload.

    ``n_pcm_writes`` is the target number of line writes across all
    cores; cores stop early at ``max_refs_per_core`` CPU references so
    cache-resident benchmarks (xalancbmk) terminate.
    """
    seed = config.seed if seed is None else seed
    key = (
        trace_structure(config, workload, n_pcm_writes, max_refs_per_core,
                        seed=seed),
        prewarm,
    )
    if use_cache and key in _TRACE_CACHE:
        _TRACE_CACHE.move_to_end(key)
        return _TRACE_CACHE[key]

    spec = get_workload(workload)
    trace = _generate(config, spec, n_pcm_writes, max_refs_per_core, seed, prewarm)
    if use_cache:
        _TRACE_CACHE[key] = trace
        if len(_TRACE_CACHE) > TRACE_CACHE_LIMIT:
            _TRACE_CACHE.popitem(last=False)
    return trace


def _generate(
    config: SystemConfig,
    spec: WorkloadSpec,
    n_pcm_writes: int,
    max_refs_per_core: int,
    seed: int,
    prewarm: bool,
) -> Trace:
    line_size = config.memory.line_size
    benchmarks = spec.instantiate()
    n_cores = config.cpu.cores
    if len(benchmarks) != n_cores:
        benchmarks = [benchmarks[i % len(benchmarks)] for i in range(n_cores)]
    sampler = IterationSampler(config.pcm, kernel=config.kernel)
    quota = max(1, math.ceil(n_pcm_writes / n_cores))

    trace = Trace(workload=spec.name, line_size=line_size)
    for core_id, bench in enumerate(benchmarks):
        stream, stats, l3_accesses = _generate_core(
            config, core_id, bench, sampler,
            quota, max_refs_per_core, seed, prewarm,
        )
        _calibrate_gaps(
            stream, stats, l3_accesses,
            bench.target_rpki + bench.target_wpki,
        )
        trace.per_core.append(stream)
        trace.per_core_stats.append(stats)
        trace.stats.instructions += stats.instructions
        trace.stats.reads += stats.reads
        trace.stats.writes += stats.writes
        trace.stats.total_cells_changed += stats.total_cells_changed
        trace.stats.total_slc_bit_changes += stats.total_slc_bit_changes
    trace.validate()
    return trace


def _generate_core(
    config: SystemConfig,
    core_id: int,
    bench,
    sampler: IterationSampler,
    write_quota: int,
    max_refs: int,
    seed: int,
    prewarm: bool,
) -> Tuple[List[PCMAccess], TraceStats, int]:
    """One core's pass: its stream, its stats and its L3 access count.

    The core's caches and its two line images (the dirty data the CPU
    holds, and what PCM holds) live only for this pass. No core touches
    another's addresses (:data:`CORE_ADDR_STRIDE`), so nothing here is
    shared, and the prewarm of one core is freed before the next starts:
    a trace peaks at one core's prewarm, not all of them.
    """
    rng = make_rng(seed, "workload", core_id, bench.name)
    hierarchy = CoreHierarchy(
        config.caches, core_id,
        fetch_on_write_miss=bench.fetch_on_write_miss,
    )
    line_size = config.memory.line_size
    image = LineStore(line_size)
    pcm_image = LineStore(line_size)
    base = (core_id + 1) * CORE_ADDR_STRIDE
    if prewarm:
        _prewarm_l3(hierarchy, image, pcm_image, bench, base, rng)

    stream: List[PCMAccess] = []
    stats = TraceStats()
    bits_per_cell = config.pcm.bits_per_cell
    pending_instr = 0
    refs = 0
    for ref in bench.refs(rng, base):
        if refs >= max_refs or stats.writes >= write_quota:
            break
        refs += 1
        pending_instr += ref.gap_instr
        stats.instructions += ref.gap_instr
        if ref.is_write and ref.value is not None:
            image.write_bytes(ref.addr, int(ref.value).to_bytes(8, "little"))
        events = hierarchy.access(ref.addr, ref.is_write)
        if not events:
            continue
        gap_hit = hierarchy.take_pending_cycles()
        for kind, line_addr in events:
            if kind == PCM_READ:
                stream.append(PCMAccess(
                    core=core_id, kind=READ, line_addr=line_addr,
                    gap_instr=pending_instr, gap_hit_cycles=gap_hit,
                ))
                stats.reads += 1
            else:
                # Each write draws from its own RNG stream keyed by
                # (seed, core, write index): reordering or batching
                # writes can never shift another write's samples, and
                # any write's device draws can be re-derived in
                # isolation.
                device_rng = make_rng(seed, "device", core_id, stats.writes)
                record = _make_write(
                    core_id, line_addr, pending_instr, gap_hit,
                    image, pcm_image, bits_per_cell, sampler, device_rng,
                )
                stream.append(record)
                stats.writes += 1
                stats.total_cells_changed += record.n_cells_changed
                stats.total_slc_bit_changes += record.slc_bit_changes
            pending_instr = 0
            gap_hit = 0
    return stream, stats, hierarchy.l2.misses


def _make_write(
    core_id: int,
    line_addr: int,
    gap_instr: int,
    gap_hit: int,
    image: LineStore,
    pcm_image: LineStore,
    bits_per_cell: int,
    sampler: IterationSampler,
    device_rng: np.random.Generator,
) -> PCMAccess:
    new_data = image.read(line_addr)
    old_data = pcm_image.read(line_addr)
    idx, targets = changed_cell_targets(old_data, new_data, bits_per_cell)
    iters = sampler.sample(targets, device_rng)
    slc_bits = int(
        np.unpackbits(np.bitwise_xor(old_data, new_data)).sum()
    )
    pcm_image.write(line_addr, new_data)
    return PCMAccess(
        core=core_id, kind=WRITE, line_addr=line_addr,
        gap_instr=gap_instr, gap_hit_cycles=gap_hit,
        changed_idx=idx.astype(np.int32), iter_counts=iters,
        slc_bit_changes=slc_bits,
    )


#: How many LRU-tail ways per set get fabricated dirty-line contents.
#: Only the tail of each set can be evicted within a finite trace
#: window; deeper dirty ways evict as no-op writes if they ever surface.
PREWARM_TAIL_DEPTH = 3


def _prewarm_l3(
    hierarchy: CoreHierarchy,
    image: LineStore,
    pcm_image: LineStore,
    bench,
    base: int,
    rng: np.random.Generator,
) -> None:
    """Fill every L3 set to full associativity so evictions reflect
    steady state from the first miss.

    Ways are dirty with probability ``target_wpki / target_rpki`` (the
    steady-state dirty fraction implied by Table 2). The eviction-facing
    tail ways get benchmark-flavoured *version pairs*: the PCM image
    holds the older version and the cache the dirty newer one, so their
    write-backs diff to realistic incremental cell-change counts rather
    than first-write-versus-zero rewrites.
    """
    l3 = hierarchy.l3
    line_size = l3.line_size
    n_sets, assoc = l3.n_sets, l3.assoc
    footprint_lines = max(1, bench.footprint_bytes // line_size)
    max_tag = footprint_lines // n_sets
    ways = min(assoc, max_tag)
    if ways <= 0:
        return
    dirty_frac = min(
        0.9,
        bench.target_wpki / max(bench.target_rpki, 1e-9)
        * getattr(bench, "prewarm_dirty_scale", 1.0),
    )

    # Uniform random tags per set, distinct within each set: draw, sort,
    # and nudge duplicates upward (an occasional residual duplicate only
    # wastes one way).
    base_tag = (base // line_size) // n_sets
    rel_tags = np.sort(
        rng.integers(0, max_tag, size=(n_sets, ways), dtype=np.int64), axis=1
    )
    for k in range(1, ways):
        clash = rel_tags[:, k] <= rel_tags[:, k - 1]
        rel_tags[clash, k] = (rel_tags[clash, k - 1] + 1) % max_tag
    dirty = rng.random((n_sets, ways)) < dirty_frac
    l3.prefill(base_tag + rel_tags, dirty)

    tail = min(ways, PREWARM_TAIL_DEPTH)
    tail_dirty = dirty[:, ways - tail:]
    sets_idx, ways_off = np.nonzero(tail_dirty)
    old_block, new_block = bench.prewarm_line_pairs(rng, sets_idx.size, line_size)
    # Rows go in set-major order, so a residual duplicate tag keeps its
    # later way's contents.
    tags = rel_tags[sets_idx, ways - tail + ways_off]
    addrs = ((base_tag + tags) * n_sets + sets_idx) * line_size
    pcm_image.write_rows(addrs, old_block)
    image.write_rows(addrs, new_block)
    hierarchy.pending_cycles = 0


def _calibrate_gaps(
    stream: List[PCMAccess],
    stats: TraceStats,
    l3_accesses: int,
    target_pki: float,
) -> None:
    """Rescale instruction gaps so the core's *L3 demand access* rate
    matches the benchmark's Table 2 R+W PKI.

    Table 2 reports per-benchmark memory intensity ahead of the DRAM L3
    (the level the paper's DRAM cache filters); the PCM-level rates then
    emerge from L3 hit/miss behaviour, which is what differentiates
    streaming from random workloads in Figure 10.
    """
    recorded = sum(acc.gap_instr for acc in stream)
    if not l3_accesses or target_pki <= 0 or not recorded:
        stats.instructions = max(stats.instructions, recorded, 1)
        return
    needed = 1000.0 * l3_accesses / target_pki
    scale = needed / recorded
    total = 0
    for acc in stream:
        acc.gap_instr = max(1, int(round(acc.gap_instr * scale)))
        total += acc.gap_instr
    stats.instructions = total
